package browser

import (
	"fmt"
	"strings"
	"time"

	"webmeasure/internal/cookies"
	"webmeasure/internal/faults"
	"webmeasure/internal/measurement"
	"webmeasure/internal/webgen"
)

// Transport intercepts a page-load attempt before it renders — the
// Transport-style hook the fault injector (internal/faults) plugs into.
// Implementations must be pure functions of their arguments so the crawl
// stays deterministic for any worker count.
type Transport interface {
	RoundTrip(profile, pageURL string, attempt int) faults.Outcome
}

// DefaultTimeoutMS is the per-page timeout the paper configures (30s,
// Appendix C).
const DefaultTimeoutMS = 30_000

// Keystrokes mimicking user interaction (§3.1.1): once the page settled,
// the crawler sends Page Down, Tab, and End with short delays in between.
// Each lazy resource is bound to the keystroke that would bring it into
// view, so interaction-gated loads spread over the keystroke sequence.
type keystroke struct {
	Key  string
	AtMS int
}

// Keystrokes returns the mimicked interaction sequence with its timing.
func Keystrokes() []keystroke {
	return []keystroke{
		{Key: "PageDown", AtMS: 1_500},
		{Key: "Tab", AtMS: 1_700},
		{Key: "End", AtMS: 1_900},
	}
}

// Browser renders pages under one profile. It is stateless across visits
// (the measurement's stateless mode, Appendix C) and safe for concurrent
// use by multiple goroutines ("browser instances").
type Browser struct {
	Profile   Profile
	TimeoutMS int // 0 = DefaultTimeoutMS
	// Transport, if non-nil, may disturb page-load attempts (injected
	// errors, 5xx, latency, truncation, redirect loops). nil = the clean
	// network of the seed pipeline.
	Transport Transport
}

// New creates a browser for a profile with the default timeout.
func New(p Profile) *Browser { return &Browser{Profile: p} }

func (b *Browser) timeout() int {
	if b.TimeoutMS > 0 {
		return b.TimeoutMS
	}
	return DefaultTimeoutMS
}

// visitFailureProb is the per-visit probability of a browser-level failure
// (crash, TLS error, server 5xx). Combined with crawler-level failures the
// per-profile failure rate lands near the paper's ~11%.
const visitFailureProb = 0.03

// Visit renders one page statelessly (a fresh cookie jar per visit, the
// measurement's default, Appendix C). nonce individualizes the visit's
// volatile behaviour: distinct nonces model distinct points in time /
// sessions, so even identically configured profiles observe different
// traffic.
func (b *Browser) Visit(page *webgen.Page, nonce uint64) *measurement.Visit {
	return b.VisitAttempt(page, nonce, 0, NewJar())
}

// NewJar creates a cookie jar on the simulation clock, for stateful crawls
// that preserve cookies across page visits.
func NewJar() *cookies.Jar {
	return cookies.NewJar(func() time.Time { return simEpoch })
}

// VisitAttempt renders one fetch attempt of a page. attempt counts from
// zero and individualizes the Transport's fault rolls only — the page's
// own volatile behaviour stays pinned to nonce, so a retried visit that
// finally succeeds observes exactly what an undisturbed visit would have
// (determinism across retry schedules and worker counts). The visit's
// cookies accumulate in jar, which a stateful crawl shares across pages,
// and its Cookies field snapshots the jar afterwards.
func (b *Browser) VisitAttempt(page *webgen.Page, nonce uint64, attempt int, jar *cookies.Jar) *measurement.Visit {
	v := &measurement.Visit{
		Site:     page.Site,
		PageURL:  page.URL,
		Profile:  b.Profile.Name,
		Attempts: attempt + 1,
	}
	if webgen.RollProb(page.Seed, nonce, "visit", "browser-fail") < visitFailureProb {
		// A browser-level crash is a property of the session, not the
		// network: retrying the same session cannot clear it.
		v.Failure = "navigation failed"
		v.Status = measurement.VisitFailed
		return v
	}

	var out faults.Outcome
	if b.Transport != nil {
		out = b.Transport.RoundTrip(b.Profile.Name, page.URL, attempt)
	}
	if out.Kind != faults.None {
		v.FaultKind = out.Kind.String()
	}
	switch out.Kind {
	case faults.Error, faults.ServerError:
		v.Failure = out.Failure
		v.Status = measurement.VisitFailed
		v.Retryable = out.Retryable
		return v
	case faults.RedirectLoop:
		// The navigation bounces between interstitials until the hop cap;
		// the hop chain is recorded so the failure is diagnosable from
		// the raw dataset.
		v.Failure = out.Failure
		v.Status = measurement.VisitFailed
		v.Retryable = out.Retryable
		chain := faults.RedirectChain(int64(page.Seed), b.Profile.Name, page.URL, out.Hops)
		prev := ""
		for i, hop := range chain {
			v.Requests = append(v.Requests, measurement.Request{
				URL:          hop,
				Type:         measurement.TypeMainFrame,
				RedirectFrom: prev,
				Status:       302,
				ContentType:  "text/html",
				TimeOffsetMS: (i + 1) * 30,
			})
			prev = hop
		}
		return v
	}

	r := &renderer{
		browser:   b,
		page:      page,
		nonce:     nonce,
		visit:     v,
		timeout:   b.timeout(),
		jar:       jar,
		nextFrame: measurement.TopFrameID,
	}
	r.cutoff = r.timeout
	if out.Kind == faults.Truncate && out.TruncateAtMS < r.cutoff {
		r.cutoff = out.TruncateAtMS
	}
	start := 0
	if out.Kind == faults.Latency {
		start = out.ExtraLatencyMS
	}

	rootLatency := r.latencyOf(page.Root)
	rootURL := page.URL
	r.emit(measurement.Request{
		URL:  rootURL,
		Type: measurement.TypeMainFrame,
	}, page.Root, rootURL, start)
	ctx := frameContext{frameID: measurement.TopFrameID, frameURL: rootURL}
	r.walkChildren(page.Root, ctx, "", start+rootLatency)

	v.Success = true
	v.Status = measurement.VisitOK
	switch {
	case out.Kind == faults.Truncate:
		v.Status = measurement.VisitDegraded
	case out.Kind == faults.Latency && r.dropped > 0:
		// The injected stall pushed resources past the page timeout: the
		// tree was observed, but incompletely.
		v.Status = measurement.VisitDegraded
	}
	v.Cookies = r.collectCookies()
	if r.maxCompletion > r.timeout {
		v.DurationMS = r.timeout
	} else {
		v.DurationMS = r.maxCompletion
	}
	return v
}

// simEpoch is the fixed simulation wall-clock; cookie Max-Age resolution is
// relative to it, keeping runs reproducible.
var simEpoch = time.Date(2022, 3, 15, 12, 0, 0, 0, time.UTC)

// frameContext carries the frame a walk is inside of.
type frameContext struct {
	frameID  int
	frameURL string
}

type renderer struct {
	browser       *Browser
	page          *webgen.Page
	nonce         uint64
	visit         *measurement.Visit
	timeout       int
	cutoff        int // ≤ timeout; a Truncate fault lowers it
	jar           *cookies.Jar
	nextFrame     int
	maxCompletion int
	dropped       int // resources lost past the cutoff (degradation signal)
}

// emit appends the request and applies its cookies.
func (r *renderer) emit(req measurement.Request, res *webgen.Resource, realizedURL string, at int) {
	req.TimeOffsetMS = at
	r.fillResponseMeta(&req, realizedURL)
	for _, cs := range res.SetCookies {
		header := r.cookieHeader(cs, res)
		req.SetCookies = append(req.SetCookies, header)
		// Browsers apply Set-Cookie as responses arrive.
		_ = r.jar.SetFromHeader(header, realizedURL)
	}
	r.visit.Requests = append(r.visit.Requests, req)
	if at > r.maxCompletion {
		r.maxCompletion = at
	}
}

// fillResponseMeta synthesizes the HTTP response metadata: status,
// content type, and body size. Headers are the *static* face of a page —
// near-identical across setups — which is exactly the contrast the paper's
// third takeaway draws against dynamic content; only a small volatile
// share (soft 404s, A/B'd payload sizes) varies per visit.
func (r *renderer) fillResponseMeta(req *measurement.Request, realizedURL string) {
	if req.Status != 0 {
		return // redirect hops etc. set their own status
	}
	switch req.Type {
	case measurement.TypeWebSocket:
		req.Status = 101
	case measurement.TypeBeacon, measurement.TypeCSPReport:
		req.Status = 204
	default:
		req.Status = 200
	}
	// A sliver of volatile failures: ad servers occasionally 404 a
	// creative that still "loads" an error payload.
	if req.Status == 200 &&
		webgen.RollProb(r.page.Seed, r.nonce, realizedURL, "soft404") < 0.004 {
		req.Status = 404
	}
	req.ContentType = req.Type.DefaultContentType()

	// Body size: a stable per-resource base plus per-visit jitter for
	// dynamic payloads (documents, JSON, scripts with volatile params).
	base := 200 + int(webgen.RollProb(1, 0, realizedURL, "size")*50_000)
	switch req.Type {
	case measurement.TypeImage, measurement.TypeImageset, measurement.TypeMedia:
		req.BodySize = base * 4 // media is heavier but stable
	case measurement.TypeMainFrame, measurement.TypeSubFrame, measurement.TypeXHR:
		jitter := webgen.RollProb(r.page.Seed, r.nonce, realizedURL, "sizejit")
		req.BodySize = base + int(jitter*float64(base)/4)
	default:
		req.BodySize = base
	}
}

// cookieHeader renders a CookieSpec as a Set-Cookie header, resolving the
// occasional volatile attribute flip (§5.2's differing attributes).
func (r *renderer) cookieHeader(cs webgen.CookieSpec, res *webgen.Resource) string {
	var sb strings.Builder
	value := webgen.RollToken(r.page.Seed, r.nonce, res.ID+cs.Name, "cookieval")
	name := cs.Name
	if cs.VolatileName {
		name += "_" + webgen.RollToken(r.page.Seed, r.nonce, res.ID+cs.Name, "cookiename")
	}
	fmt.Fprintf(&sb, "%s=%s", name, value)
	if cs.Domain != "" {
		fmt.Fprintf(&sb, "; Domain=%s", cs.Domain)
	}
	path := cs.Path
	if path == "" {
		path = "/"
	}
	fmt.Fprintf(&sb, "; Path=%s", path)
	if cs.MaxAge > 0 {
		fmt.Fprintf(&sb, "; Max-Age=%d", cs.MaxAge)
	}
	secure, sameSite := cs.Secure, cs.SameSite
	if cs.VolatileAttrs && webgen.RollProb(r.page.Seed, r.nonce, res.ID+cs.Name, "attrflip") < 0.3 {
		secure = !secure
		if sameSite == "None" {
			sameSite = "Lax"
		} else {
			sameSite = "None"
		}
	}
	// SameSite=None requires Secure; browsers reject it otherwise.
	if sameSite == "None" {
		secure = true
	}
	if secure {
		sb.WriteString("; Secure")
	}
	if cs.HTTPOnly {
		sb.WriteString("; HttpOnly")
	}
	if sameSite != "" {
		fmt.Fprintf(&sb, "; SameSite=%s", sameSite)
	}
	return sb.String()
}

// included resolves all per-visit gates for a resource.
func (r *renderer) included(res *webgen.Resource) bool {
	p := r.browser.Profile
	if res.Lazy && !p.UserInteraction {
		return false
	}
	if res.MinVersion > 0 && p.Version < res.MinVersion {
		return false
	}
	if res.MaxVersion > 0 && p.Version > res.MaxVersion {
		return false
	}
	if res.GUIOnly && !p.GUI {
		return false
	}
	if res.IncludeProb < 1 &&
		webgen.RollProb(r.page.Seed, r.nonce, res.ID, "incl") >= res.IncludeProb {
		return false
	}
	return true
}

// latencyOf resolves the per-visit load latency, including stalls and
// jitter.
func (r *renderer) latencyOf(res *webgen.Resource) int {
	if res.StallProb > 0 &&
		webgen.RollProb(r.page.Seed, r.nonce, res.ID, "stall") < res.StallProb {
		return res.StallMS
	}
	jitter := webgen.RollProb(r.page.Seed, r.nonce, res.ID, "jitter")
	return res.LatencyMS + int(jitter*float64(res.LatencyMS)*0.5)
}

// realizeURL substitutes volatile path tokens and appends volatile query
// parameter values.
func (r *renderer) realizeURL(res *webgen.Resource) string {
	url := res.URL
	if res.VolatilePath {
		url = strings.ReplaceAll(url, webgen.VolatilePathMarker,
			webgen.RollToken(r.page.Seed, r.nonce, res.ID, "vtok"))
	}
	if len(res.VolatileParams) > 0 {
		sep := "?"
		if strings.ContainsRune(url, '?') {
			sep = "&"
		}
		var sb strings.Builder
		sb.WriteString(url)
		for i, p := range res.VolatileParams {
			sb.WriteString(sep)
			if i > 0 {
				sep = "&"
			}
			sb.WriteString(p)
			sb.WriteByte('=')
			sb.WriteString(webgen.RollToken(r.page.Seed, r.nonce, res.ID+p, "param"))
			sep = "&"
		}
		return sb.String()
	}
	return url
}

// walkChildren renders the children (and the chosen variant bundle) of a
// loaded resource. parent is the realized URL of the script/stylesheet that
// issues child requests via a call stack ("" for parser-inserted content —
// children of documents). startAt is the simulated time the parent
// finished loading.
func (r *renderer) walkChildren(res *webgen.Resource, ctx frameContext, stackURL string, startAt int) {
	children := res.Children
	if len(res.Variants) > 0 {
		idx := webgen.RollChoice(r.page.Seed, r.nonce, res.ID, "variant", len(res.Variants))
		children = append(append([]*webgen.Resource(nil), children...), res.Variants[idx]...)
	}
	for _, c := range children {
		r.renderResource(c, ctx, stackURL, startAt)
	}
}

// renderResource renders one resource and its subtree.
func (r *renderer) renderResource(res *webgen.Resource, ctx frameContext, stackURL string, startAt int) {
	if !r.included(res) {
		return
	}
	at := startAt
	if res.Lazy {
		// Lazy content begins once its triggering keystroke fired.
		ks := Keystrokes()
		trigger := ks[webgen.RollChoice(r.page.Seed, 0, res.ID, "keystroke", len(ks))]
		if at < trigger.AtMS {
			at = trigger.AtMS
		}
	}

	// Redirect chain hops each cost a round trip and form a node chain.
	var redirectFrom string
	for _, hop := range res.RedirectVia {
		at += 10 + int(webgen.RollProb(r.page.Seed, r.nonce, res.ID+hop, "hoplat")*40)
		if at > r.cutoff {
			r.dropped++
			return
		}
		req := measurement.Request{
			URL:          hop,
			Type:         res.Type,
			FrameID:      ctx.frameID,
			FrameURL:     ctx.frameURL,
			RedirectFrom: redirectFrom,
			Status:       302,
			ContentType:  "text/html",
		}
		if redirectFrom == "" {
			if stackURL != "" {
				req.CallStack = []measurement.StackFrame{{FuncName: "load", URL: stackURL}}
				req.TrueParentURL = stackURL
			} else {
				req.TrueParentURL = ctx.frameURL
			}
		} else {
			req.TrueParentURL = redirectFrom
		}
		r.emit(req, &webgen.Resource{}, hop, at)
		redirectFrom = hop
	}

	at += r.latencyOf(res)
	if at > r.cutoff {
		// The page timed out (or the injected truncation cut the stream)
		// before this resource finished; the measurement never records it
		// (truncation divergence).
		r.dropped++
		return
	}

	realized := r.realizeURL(res)
	req := measurement.Request{
		URL:          realized,
		Type:         res.Type,
		FrameID:      ctx.frameID,
		FrameURL:     ctx.frameURL,
		RedirectFrom: redirectFrom,
	}
	switch {
	case redirectFrom != "":
		req.TrueParentURL = redirectFrom
	case stackURL != "":
		req.CallStack = []measurement.StackFrame{{FuncName: "load", URL: stackURL}}
		req.TrueParentURL = stackURL
	default:
		req.TrueParentURL = ctx.frameURL
	}
	r.emit(req, res, realized, at)

	switch res.Type {
	case measurement.TypeSubFrame:
		// Children render inside the new frame; their requests carry the
		// frame's ID and document URL, not a call stack.
		r.nextFrame++
		sub := frameContext{frameID: r.nextFrame, frameURL: realized}
		r.walkChildren(res, sub, "", at)
	case measurement.TypeScript, measurement.TypeStylesheet, measurement.TypeXHR:
		// Scripts issue child requests with a JS call stack whose last
		// entry is the script itself; Firefox reports CSS dependencies the
		// same way (§3.2).
		r.walkChildren(res, ctx, realized, at)
	default:
		// Other types cannot load children; defensive walk for specs that
		// attach children anyway.
		r.walkChildren(res, ctx, stackURL, at)
	}
}

// collectCookies snapshots the jar.
func (r *renderer) collectCookies() []measurement.CookieObservation {
	all := r.jar.All()
	out := make([]measurement.CookieObservation, len(all))
	for i, c := range all {
		out[i] = measurement.CookieObservation{
			Name:     c.Name,
			Domain:   c.Domain,
			Path:     c.Path,
			Secure:   c.Secure,
			HTTPOnly: c.HTTPOnly,
			SameSite: string(c.SameSite),
		}
	}
	return out
}
