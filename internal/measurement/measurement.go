// Package measurement defines the instrumentation data model — the role
// OpenWPM's database schema plays in the paper. A page visit yields a Visit
// record whose Requests carry the three signals §3.2 builds dependency
// trees from: the parent frame of each request, the JavaScript (and CSS)
// call stack, and HTTP redirect provenance. Cookie observations (§5.2) ride
// along on the same record.
package measurement

import "fmt"

// ResourceType classifies the content a request loads, following the
// content-policy types OpenWPM/Firefox report (cf. Fig. 7's panels).
type ResourceType uint8

// Resource types observed in the experiment.
const (
	TypeOther ResourceType = iota
	TypeMainFrame
	TypeSubFrame
	TypeScript
	TypeStylesheet
	TypeImage
	TypeImageset
	TypeFont
	TypeMedia
	TypeXHR
	TypeWebSocket
	TypeBeacon
	TypeCSPReport
	TypeText

	numResourceTypes
)

var resourceTypeNames = [numResourceTypes]string{
	"other", "main_frame", "sub_frame", "script", "stylesheet", "image",
	"imageset", "font", "media", "xmlhttprequest", "websocket", "beacon",
	"csp_report", "text",
}

// String returns the OpenWPM-style name of the type.
func (t ResourceType) String() string {
	if int(t) < len(resourceTypeNames) {
		return resourceTypeNames[t]
	}
	return fmt.Sprintf("resource_type(%d)", uint8(t))
}

// AllResourceTypes lists every type in declaration order.
func AllResourceTypes() []ResourceType {
	out := make([]ResourceType, numResourceTypes)
	for i := range out {
		out[i] = ResourceType(i)
	}
	return out
}

// CanHaveChildren reports whether the type can dynamically load further
// content. §3.2 excludes depth-one nodes that cannot (e.g. plain text or
// images) from parts of the analysis because they would fake perfect
// similarity.
func (t ResourceType) CanHaveChildren() bool {
	switch t {
	case TypeMainFrame, TypeSubFrame, TypeScript, TypeStylesheet, TypeXHR, TypeWebSocket:
		return true
	default:
		return false
	}
}

// StackFrame is one entry of a JavaScript call stack as OpenWPM records it.
// Only the last entry — the function that issued the request — is used for
// parent attribution (§3.2).
type StackFrame struct {
	FuncName string `json:"func_name"`
	URL      string `json:"url"` // the script (or stylesheet) the frame executes in
	Line     int    `json:"line"`
}

// Request is one observed HTTP request with its provenance.
type Request struct {
	URL  string       `json:"url"`
	Type ResourceType `json:"type"`

	// FrameID identifies the frame issuing the request; 0 is the top-level
	// frame. FrameURL is the document URL of that frame.
	FrameID  int    `json:"frame_id"`
	FrameURL string `json:"frame_url,omitempty"`

	// CallStack is the JS/CSS call stack that issued the request (empty for
	// parser-inserted elements). The Firefox environment reports CSS
	// loading dependencies through the same channel (§3.2 [8]).
	CallStack []StackFrame `json:"call_stack,omitempty"`

	// RedirectFrom is the URL that HTTP-redirected to this request, if any.
	RedirectFrom string `json:"redirect_from,omitempty"`

	// SetCookies carries the Set-Cookie headers of the response.
	SetCookies []string `json:"set_cookies,omitempty"`

	// Status is the HTTP response status code (302 for redirect hops).
	Status int `json:"status,omitempty"`
	// ContentType is the response's Content-Type header.
	ContentType string `json:"content_type,omitempty"`
	// BodySize is the response body size in bytes.
	BodySize int `json:"body_size,omitempty"`

	// TimeOffsetMS is when the request was issued relative to navigation
	// start, in simulated milliseconds.
	TimeOffsetMS int `json:"time_offset_ms"`

	// TrueParentURL is the ground-truth initiator the simulator knows
	// (empty for the navigation request). Real instrumentation has no
	// such field; it exists to *evaluate* the paper's attribution
	// heuristics — §6 concedes that URL merging can collapse branches,
	// and this field lets the repository measure how often.
	TrueParentURL string `json:"true_parent_url,omitempty"`
}

// DefaultContentType returns the canonical Content-Type for a resource
// type (what a well-behaved server sends).
func (t ResourceType) DefaultContentType() string {
	switch t {
	case TypeMainFrame, TypeSubFrame:
		return "text/html"
	case TypeScript:
		return "application/javascript"
	case TypeStylesheet:
		return "text/css"
	case TypeImage, TypeImageset:
		return "image/jpeg"
	case TypeFont:
		return "font/woff2"
	case TypeMedia:
		return "video/mp4"
	case TypeXHR:
		return "application/json"
	case TypeBeacon:
		return "image/gif"
	case TypeCSPReport:
		return "application/csp-report"
	case TypeText:
		return "text/plain"
	case TypeWebSocket:
		return ""
	default:
		return "application/octet-stream"
	}
}

// TopFrameID is the FrameID of the top-level document.
const TopFrameID = 0

// CookieObservation is a cookie as stored in the browser's jar at the end
// of the visit, with the security attributes §5.2 compares.
type CookieObservation struct {
	Name     string `json:"name"`
	Domain   string `json:"domain"`
	Path     string `json:"path"`
	Secure   bool   `json:"secure"`
	HTTPOnly bool   `json:"http_only"`
	SameSite string `json:"same_site,omitempty"`
}

// ID returns the RFC 6265 identity tuple as a single key.
func (c CookieObservation) ID() string {
	return c.Name + "\x00" + c.Domain + "\x00" + c.Path
}

// AttributeSignature encodes the security attributes for cross-profile
// comparison.
func (c CookieObservation) AttributeSignature() string {
	return fmt.Sprintf("secure=%v;httponly=%v;samesite=%s", c.Secure, c.HTTPOnly, c.SameSite)
}

// Visit statuses: how cleanly a visit completed. A Visit's Status may be
// empty on records written before status tracking existed; use
// EffectiveStatus for classification.
const (
	// VisitOK: the page loaded cleanly.
	VisitOK = "ok"
	// VisitDegraded: the page "loaded" (Success is true, requests were
	// recorded) but an injected fault truncated the observation — the
	// partial load the vetting stage must exclude.
	VisitDegraded = "degraded"
	// VisitFailed: the visit produced no usable measurement.
	VisitFailed = "failed"
)

// Visit is the record of one page visit by one profile.
type Visit struct {
	Site    string `json:"site"`
	PageURL string `json:"page_url"`
	Profile string `json:"profile"`

	// Success is false when the visit failed (timeout, unreachable, crash);
	// failed visits carry no requests, except redirect-loop failures,
	// which record their 302 hop chain.
	Success bool   `json:"success"`
	Failure string `json:"failure,omitempty"`

	// Status refines Success into ok / degraded / failed (see the Visit*
	// constants). Empty on legacy records; EffectiveStatus resolves it.
	Status string `json:"status,omitempty"`
	// Attempts is how many fetch attempts the crawler made for this
	// record (0 on legacy records, meaning 1).
	Attempts int `json:"attempts,omitempty"`
	// Retryable marks a failure as transient: the fault injector judged
	// that a retry could have cleared it (the retry budget ran out).
	Retryable bool `json:"retryable,omitempty"`
	// FaultKind names the injected fault that disturbed this attempt
	// ("error", "server_error", "latency", "truncate", "redirect_loop";
	// empty when the attempt ran on a clean network), so retries and
	// degradations are attributable from the raw dataset and traces.
	FaultKind string `json:"fault_kind,omitempty"`

	Requests []Request           `json:"requests,omitempty"`
	Cookies  []CookieObservation `json:"cookies,omitempty"`

	// StartOffsetS is the visit's start time relative to the site batch
	// start, in simulated seconds (Appendix C reports the deviation).
	StartOffsetS float64 `json:"start_offset_s"`
	// DurationMS is the simulated page load duration.
	DurationMS int `json:"duration_ms"`
}

// EffectiveStatus resolves the visit's status, defaulting legacy records
// (empty Status) from the Success flag.
func (v *Visit) EffectiveStatus() string {
	if v.Status != "" {
		return v.Status
	}
	if v.Success {
		return VisitOK
	}
	return VisitFailed
}

// Clean reports whether the visit completed without failure or
// degradation — the paper's vetting criterion ("successfully and
// consistently visited").
func (v *Visit) Clean() bool {
	return v.Success && v.EffectiveStatus() != VisitDegraded
}

// AppendURLs appends the visit's URLs to dst and returns the extended
// slice: the page URL and, per request, its URL, redirect source, frame
// URL, call-stack frame URLs and ground-truth parent, skipping empty ones
// and keeping repeats. These are the only fields that hold URLs, so a URL
// table built from them resolves every URL the analysis looks up.
func (v *Visit) AppendURLs(dst []string) []string {
	dst = append(dst, v.PageURL)
	for i := range v.Requests {
		req := &v.Requests[i]
		dst = append(dst, req.URL)
		for _, raw := range []string{req.RedirectFrom, req.FrameURL, req.TrueParentURL} {
			if raw != "" {
				dst = append(dst, raw)
			}
		}
		for _, fr := range req.CallStack {
			if fr.URL != "" {
				dst = append(dst, fr.URL)
			}
		}
	}
	return dst
}
