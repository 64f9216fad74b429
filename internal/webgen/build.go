package webgen

import (
	"fmt"
	"math/rand"
	"strconv"

	"webmeasure/internal/measurement"
)

// generatePage builds the spec tree for one page. All structural decisions
// here use rng, reseeded with the page seed, and are therefore identical
// for every profile and visit; per-visit volatility is expressed through
// the Resource fields the browser simulator resolves. Reseeding resets a
// rand.NewSource generator to exactly the state a fresh source for the
// seed starts in, so one generator serves every page of a site call.
//
// Two mechanisms drive the paper's instability findings:
//
//   - volatile inclusion / rotation / volatile paths make node *presence*
//     differ between visits;
//   - shared resources (the same URL attached beneath several possible
//     parents, each with volatile inclusion) make node *attribution*
//     differ: the tree builder merges equal URLs and credits the first
//     requester, so the dependency chain of a shared node changes from
//     visit to visit — the §4.2 phenomenon.
func (u *Universe) generatePage(rng *rand.Rand, p *siteProfile, pageURL, pageID string, links []string) *Page {
	seed := mix(p.seed, hash64("page", pageID))
	rng.Seed(int64(seed))
	b := &pageBuilder{u: u, p: p, rng: rng, pageID: pageID}

	root := &Resource{
		ID:        "root",
		URL:       pageURL,
		Type:      measurement.TypeMainFrame,
		LatencyMS: 150 + rng.Intn(400),
		SetCookies: []CookieSpec{
			{Name: "sid", MaxAge: 0, HTTPOnly: true},
		},
	}
	if rng.Float64() < 0.5 {
		root.SetCookies = append(root.SetCookies, CookieSpec{Name: "prefs", MaxAge: 86400 * 30, SameSite: "Lax"})
	}

	portalScale := 1.0
	if p.portal {
		portalScale = 3.0
	}
	// ~10% of pages are plain (logins, legal pages): first-party only.
	plain := rng.Float64() < 0.10 && !p.portal

	b.addStaticText(root, rng.Intn(4))
	b.addFirstPartyImages(root, int(float64(8+rng.Intn(16))*p.imageRich*portalScale))
	b.addLazyImages(root, 2+rng.Intn(4))
	b.addStylesheets(root, 1+rng.Intn(3))
	fpScripts := b.addFirstPartyScripts(root, 2+rng.Intn(4))
	b.addSharedLibrary(fpScripts)
	if !plain {
		b.addCDNLibs(root, fpScripts, 2+rng.Intn(len(p.cdns)+1))
		if len(p.trackers) > 0 {
			b.addTrackers(root, fpScripts)
		}
		if len(p.adNetworks) > 0 {
			slots := p.adSlotsBase + rng.Intn(3)
			if p.portal {
				slots += 3
			}
			b.addAdSlots(root, slots)
		}
		if p.social != nil && rng.Float64() < 0.8 {
			b.addSocialWidget(root)
		}
		if p.cmp != nil {
			b.addCMP(root)
		}
	}

	return &Page{
		Site:  p.domain,
		URL:   pageURL,
		Seed:  seed,
		Root:  root,
		Links: links,
	}
}

// pageBuilder accumulates spec nodes with unique IDs.
type pageBuilder struct {
	u      *Universe
	p      *siteProfile
	rng    *rand.Rand
	pageID string
	nextID int
}

func (b *pageBuilder) id(kind string) string {
	b.nextID++
	return b.pageID + "." + kind + strconv.Itoa(b.nextID)
}

// addStaticText adds depth-one nodes that cannot load children (plain text
// documents); §3.2 excludes them from parts of the analysis, so the
// generator must produce some for that code path to matter.
func (b *pageBuilder) addStaticText(root *Resource, n int) {
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, &Resource{
			ID:          b.id("txt"),
			URL:         fmt.Sprintf("https://%s/content/section-%02d.txt", b.p.domain, i),
			Type:        measurement.TypeText,
			IncludeProb: 1,
			LatencyMS:   5 + b.rng.Intn(20),
		})
	}
}

// addFirstPartyImages adds the stable depth-one content that gives
// first-party nodes their near-perfect similarity (§4.3); a small share
// rotates or is one-off.
func (b *pageBuilder) addFirstPartyImages(root *Resource, n int) {
	assetHost := "static." + b.p.domain
	if b.p.imageCDN != nil {
		assetHost = b.p.domain + "." + b.p.imageCDN.Domain
	}
	for i := 0; i < n; i++ {
		img := &Resource{
			ID:          b.id("img"),
			URL:         fmt.Sprintf("https://%s/assets/img-%03d.jpg", assetHost, b.rng.Intn(400)),
			Type:        measurement.TypeImage,
			IncludeProb: 0.995,
			LatencyMS:   10 + b.rng.Intn(40),
		}
		r := b.rng.Float64()
		switch {
		case r < 0.05:
			// Rotating editorial images differ between visits.
			img.IncludeProb = 0.5
		case r < 0.09:
			// One-off personalized/resized images: unique per visit.
			img.URL = fmt.Sprintf("https://%s/resize/%s/hero-%02d.jpg", assetHost, VolatilePathMarker, i)
			img.VolatilePath = true
			img.IncludeProb = 0.6
		case r < 0.35:
			img.VolatileParams = []string{"cb"}
		}
		root.Children = append(root.Children, img)
	}
}

func (b *pageBuilder) addLazyImages(root *Resource, n int) {
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, &Resource{
			ID:          b.id("lazyimg"),
			URL:         fmt.Sprintf("https://static.%s/assets/lazy-%03d.jpg", b.p.domain, b.rng.Intn(400)),
			Type:        measurement.TypeImage,
			IncludeProb: 0.97,
			Lazy:        true,
			LatencyMS:   10 + b.rng.Intn(40),
		})
	}
}

func (b *pageBuilder) addStylesheets(root *Resource, n int) {
	// Fonts are shared between stylesheets: both sheets reference the same
	// face and the first to load it gets the attribution.
	sharedFont := fmt.Sprintf("https://%s/fonts/face-%02d.woff2",
		b.p.cdns[b.rng.Intn(len(b.p.cdns))].Domain, b.rng.Intn(40))
	for i := 0; i < n; i++ {
		css := &Resource{
			ID:          b.id("css"),
			URL:         fmt.Sprintf("https://%s/styles/theme-%d.css", b.p.domain, i),
			Type:        measurement.TypeStylesheet,
			IncludeProb: 1,
			LatencyMS:   15 + b.rng.Intn(30),
		}
		css.Children = append(css.Children, &Resource{
			ID:          b.id("font"),
			URL:         sharedFont,
			Type:        measurement.TypeFont,
			IncludeProb: 0.75,
			LatencyMS:   10 + b.rng.Intn(25),
		})
		for g := 0; g < 1+b.rng.Intn(3); g++ {
			css.Children = append(css.Children, &Resource{
				ID:          b.id("bgimg"),
				URL:         fmt.Sprintf("https://static.%s/assets/bg-%02d.png", b.p.domain, b.rng.Intn(60)),
				Type:        measurement.TypeImage,
				IncludeProb: 0.99,
				LatencyMS:   8 + b.rng.Intn(25),
			})
		}
		root.Children = append(root.Children, css)
	}
}

// addFirstPartyScripts returns the created scripts so later builders can
// hang shared resources beneath them.
func (b *pageBuilder) addFirstPartyScripts(root *Resource, n int) []*Resource {
	scripts := make([]*Resource, 0, n)
	for i := 0; i < n; i++ {
		js := &Resource{
			ID:          b.id("fpjs"),
			URL:         fmt.Sprintf("https://%s/js/app-%d.js", b.p.domain, i),
			Type:        measurement.TypeScript,
			IncludeProb: 1,
			LatencyMS:   20 + b.rng.Intn(60),
		}
		for x := 0; x < b.rng.Intn(3); x++ {
			js.Children = append(js.Children, &Resource{
				ID:             b.id("fpxhr"),
				URL:            fmt.Sprintf("https://%s/api/v1/data-%d", b.p.domain, x),
				Type:           measurement.TypeXHR,
				IncludeProb:    0.95,
				VolatileParams: []string{"sid"},
				LatencyMS:      30 + b.rng.Intn(80),
			})
		}
		if b.p.fpAnalytics && i == 0 {
			js.Children = append(js.Children, &Resource{
				ID:             b.id("fptrack"),
				URL:            fmt.Sprintf("https://%s/track/pageview", b.p.domain),
				Type:           measurement.TypeBeacon,
				IncludeProb:    0.95,
				VolatileParams: []string{"sid", "t"},
				LatencyMS:      10 + b.rng.Intn(20),
			})
		}
		// Media players on some pages.
		if b.rng.Float64() < 0.1 {
			js.Children = append(js.Children, &Resource{
				ID:          b.id("media"),
				URL:         fmt.Sprintf("https://static.%s/media/clip-%02d.mp4", b.p.domain, b.rng.Intn(30)),
				Type:        measurement.TypeMedia,
				IncludeProb: 0.9,
				Lazy:        true,
				LatencyMS:   100 + b.rng.Intn(300),
			})
		}
		root.Children = append(root.Children, js)
		scripts = append(scripts, js)
	}
	return scripts
}

// addSharedLibrary hangs the same utility bundle URL beneath every
// first-party script with partial inclusion: whichever script requests it
// first in a given visit becomes the attributed parent — dependency chains
// for the library differ across visits even though the node is always
// present (§4.2's unstable chains).
func (b *pageBuilder) addSharedLibrary(scripts []*Resource) {
	if len(scripts) < 2 {
		return
	}
	url := fmt.Sprintf("https://%s/js/vendor/common.js", b.p.domain)
	for _, js := range scripts {
		js.Children = append(js.Children, &Resource{
			ID:          b.id("shared"),
			URL:         url,
			Type:        measurement.TypeScript,
			IncludeProb: 0.6,
			LatencyMS:   15 + b.rng.Intn(40),
		})
	}
}

// addCDNLibs adds third-party libraries; a slice of them is A/B-tested and
// not loaded on every visit, and some are additionally dynamic-imported by
// first-party code — a shared resource whose attributed parent flips.
func (b *pageBuilder) addCDNLibs(root *Resource, fpScripts []*Resource, n int) {
	for i := 0; i < n; i++ {
		cdn := b.p.cdns[b.rng.Intn(len(b.p.cdns))]
		lib := &Resource{
			ID:          b.id("cdnjs"),
			URL:         fmt.Sprintf("https://%s/libs/lib-%02d/main.min.js", cdn.Domain, b.rng.Intn(30)),
			Type:        measurement.TypeScript,
			IncludeProb: 1,
			LatencyMS:   15 + b.rng.Intn(50),
		}
		if b.rng.Float64() < 0.3 {
			lib.IncludeProb = 0.7 // A/B-tested embed
			lib.SetCookies = []CookieSpec{{Name: "ab", MaxAge: 86400, SameSite: "Lax"}}
		}
		if b.rng.Float64() < 0.25 {
			lib.VolatileParams = []string{"v"}
		}
		if len(fpScripts) > 0 && b.rng.Float64() < 0.5 {
			// The same library is also dynamic-imported by app code; when
			// the import wins the race the chain (and depth) differ.
			host := fpScripts[b.rng.Intn(len(fpScripts))]
			host.Children = append(host.Children, &Resource{
				ID:          b.id("cdndup"),
				URL:         lib.URL,
				Type:        measurement.TypeScript,
				IncludeProb: 0.4,
				LatencyMS:   lib.LatencyMS,
			})
		}
		// Newer browsers fetch an ES-module build in addition.
		if b.rng.Float64() < 0.2 {
			lib.Children = append(lib.Children, &Resource{
				ID:          b.id("cdnmod"),
				URL:         fmt.Sprintf("https://%s/libs/lib-%02d/module.mjs", cdn.Domain, b.rng.Intn(30)),
				Type:        measurement.TypeScript,
				IncludeProb: 1,
				MinVersion:  90,
				LatencyMS:   15 + b.rng.Intn(40),
			})
		}
		// Legacy polyfill for older browsers.
		if b.rng.Float64() < 0.2 {
			lib.Children = append(lib.Children, &Resource{
				ID:          b.id("cdnpoly"),
				URL:         fmt.Sprintf("https://%s/libs/polyfill/legacy.js", cdn.Domain),
				Type:        measurement.TypeScript,
				IncludeProb: 1,
				MaxVersion:  89,
				LatencyMS:   15 + b.rng.Intn(40),
			})
		}
		root.Children = append(root.Children, lib)
	}
}

// addTrackers embeds the site's trackers: via the tag manager when the
// site has one, plus inline snippets in first-party scripts. The same
// tracker script URL may be reachable from both — another shared-resource
// attribution instability.
func (b *pageBuilder) addTrackers(root *Resource, fpScripts []*Resource) {
	trackers := b.p.trackers
	if b.p.tagManager != nil {
		tm := &Resource{
			ID:          b.id("tagman"),
			URL:         fmt.Sprintf("https://%s/tm.js?id=GTM-%04d", b.p.tagManager.Domain, b.rng.Intn(10000)),
			Type:        measurement.TypeScript,
			IncludeProb: 1,
			LatencyMS:   30 + b.rng.Intn(60),
		}
		for _, tr := range trackers {
			tm.Children = append(tm.Children, b.trackerBundle(tr, 0))
			// Inline snippets in app code also kick off trackers —
			// whichever requester fires first owns the analytics subtree
			// that visit. Both candidate parents sit at depth one, so the
			// node's depth is stable while its chain is not (§4.1: nodes
			// in all trees keep their depth; §4.2: chains fluctuate).
			if len(fpScripts) > 0 {
				host := fpScripts[b.rng.Intn(len(fpScripts))]
				dup := b.trackerScriptStub(tr)
				dup.IncludeProb = 0.55
				host.Children = append(host.Children, dup)
			}
		}
		root.Children = append(root.Children, tm)
		return
	}
	// No tag manager: trackers ride in the site's own scripts, and a
	// second script races for the same tracker — a same-depth parent flip.
	for i, tr := range trackers {
		host := root
		if len(fpScripts) > 0 {
			host = fpScripts[i%len(fpScripts)]
		}
		host.Children = append(host.Children, b.trackerBundle(tr, 0))
		if len(fpScripts) > 1 {
			dup := b.trackerScriptStub(tr)
			dup.IncludeProb = 0.5
			fpScripts[(i+1)%len(fpScripts)].Children = append(fpScripts[(i+1)%len(fpScripts)].Children, dup)
		}
	}
}

// trackerScriptStub builds just the tracker's script node (no payload);
// used for shared-resource duplicates. The URL matches trackerBundle's.
func (b *pageBuilder) trackerScriptStub(tr *Service) *Resource {
	return &Resource{
		ID:          b.id("trdup"),
		URL:         fmt.Sprintf("https://%s/js/analytics.js", tr.Domain),
		Type:        measurement.TypeScript,
		IncludeProb: 1,
		LatencyMS:   25 + b.rng.Intn(60),
	}
}

// trackerBundle builds one tracker's script with the privacy-invasive
// payloads the case studies analyze: beacons, pixels, cookie-sync redirect
// chains, and cookies. chainDepth caps tracker-loads-tracker recursion.
func (b *pageBuilder) trackerBundle(tr *Service, chainDepth int) *Resource {
	script := &Resource{
		ID:          b.id("trjs"),
		URL:         fmt.Sprintf("https://%s/js/analytics.js", tr.Domain),
		Type:        measurement.TypeScript,
		IncludeProb: 0.97,
		LatencyMS:   25 + b.rng.Intn(60),
	}
	// Event beacon; often on a one-off (per-visit) collection path, which
	// makes it a unique tracking node (§5.1: 37% of unique nodes track).
	beacon := &Resource{
		ID:             b.id("trbeacon"),
		URL:            fmt.Sprintf("https://%s/track/event", tr.Domain),
		Type:           measurement.TypeBeacon,
		IncludeProb:    0.95,
		VolatileParams: []string{"sid", "t"},
		LatencyMS:      10 + b.rng.Intn(25),
		SetCookies: []CookieSpec{{
			Name: "uid", MaxAge: 86400 * 365, Secure: true, SameSite: "None",
			VolatileName:  b.rng.Float64() < 0.04,
			VolatileAttrs: b.rng.Float64() < 0.02,
		}},
	}
	if b.rng.Float64() < 0.45 {
		beacon.URL = fmt.Sprintf("https://%s/track/%s/event", tr.Domain, VolatilePathMarker)
		beacon.VolatilePath = true
	}
	script.Children = append(script.Children, beacon)
	// Engagement beacons exist only under user interaction — the §4.4
	// tracker deficit of the NoAction profile.
	if b.rng.Float64() < 0.8 {
		script.Children = append(script.Children, &Resource{
			ID:             b.id("trscroll"),
			URL:            fmt.Sprintf("https://%s/track/scroll", tr.Domain),
			Type:           measurement.TypeBeacon,
			IncludeProb:    0.9,
			Lazy:           true,
			VolatileParams: []string{"sid", "depth"},
			LatencyMS:      10 + b.rng.Intn(20),
			SetCookies: []CookieSpec{{
				Name: "eng", MaxAge: 86400 * 7, SameSite: "Lax",
			}},
		})
	}
	if b.rng.Float64() < 0.35 {
		script.Children = append(script.Children, &Resource{
			ID:             b.id("trheart"),
			URL:            fmt.Sprintf("https://%s/track/heartbeat", tr.Domain),
			Type:           measurement.TypeBeacon,
			IncludeProb:    0.85,
			Lazy:           true,
			VolatileParams: []string{"sid"},
			LatencyMS:      10 + b.rng.Intn(20),
		})
	}
	if b.rng.Float64() < 0.75 {
		script.Children = append(script.Children, &Resource{
			ID:             b.id("trpixel"),
			URL:            fmt.Sprintf("https://%s/pixel.gif", tr.Domain),
			Type:           measurement.TypeImage,
			IncludeProb:    0.8,
			Lazy:           b.rng.Float64() < 0.5,
			VolatileParams: []string{"uid"},
			LatencyMS:      8 + b.rng.Intn(20),
		})
	}
	// Trackers load partner trackers (tag piggybacking), extending the
	// dependency chain — §5.3: 65% of tracking requests are triggered by
	// other trackers.
	if chainDepth < 2 && b.rng.Float64() < 0.2 {
		partner := b.u.trackers[b.rng.Intn(len(b.u.trackers))]
		if partner != tr {
			script.Children = append(script.Children, b.trackerBundle(partner, chainDepth+1))
		}
	}
	cfgURL := fmt.Sprintf("https://%s/config/site.json", tr.Domain)
	if b.rng.Float64() < 0.8 {
		script.Children = append(script.Children, &Resource{
			ID:          b.id("trcfg"),
			URL:         cfgURL,
			Type:        measurement.TypeXHR,
			IncludeProb: 0.7,
			LatencyMS:   20 + b.rng.Intn(50),
		})
	}
	// Feature-gated measurement modules. The v2 module re-fetches the
	// shared config when the base script has not (another parent flip).
	if b.rng.Float64() < 0.3 {
		v2 := &Resource{
			ID:          b.id("trv2"),
			URL:         fmt.Sprintf("https://%s/js/v2/metrics.js", tr.Domain),
			Type:        measurement.TypeScript,
			IncludeProb: 1,
			MinVersion:  90,
			LatencyMS:   20 + b.rng.Intn(40),
		}
		v2.Children = append(v2.Children, &Resource{
			ID:          b.id("trcfgdup"),
			URL:         cfgURL,
			Type:        measurement.TypeXHR,
			IncludeProb: 0.6,
			LatencyMS:   20 + b.rng.Intn(50),
		})
		script.Children = append(script.Children, v2)
	}
	if b.rng.Float64() < 0.15 {
		script.Children = append(script.Children, &Resource{
			ID:          b.id("trlegacy"),
			URL:         fmt.Sprintf("https://%s/js/legacy/metrics.js", tr.Domain),
			Type:        measurement.TypeScript,
			IncludeProb: 1,
			MaxVersion:  89,
			LatencyMS:   20 + b.rng.Intn(40),
		})
	}
	// Cookie-sync redirect chain through a partner: each hop is a tree
	// node, pushing tracking content deeper (§4.1, §5.3).
	if b.rng.Float64() < 0.35 && len(b.u.trackers) > 2 {
		via := []string{fmt.Sprintf("https://%s/sync?partner=init", tr.Domain)}
		if b.rng.Float64() < 0.4 {
			partner := b.u.trackers[b.rng.Intn(len(b.u.trackers))]
			via = append(via, fmt.Sprintf("https://%s/sync?uid=", partner.Domain))
		}
		final := b.u.trackers[b.rng.Intn(len(b.u.trackers))]
		script.Children = append(script.Children, &Resource{
			ID:             b.id("trsync"),
			URL:            fmt.Sprintf("https://%s/track/syncdone", final.Domain),
			Type:           measurement.TypeImage,
			IncludeProb:    0.8,
			VolatileParams: []string{"uid"},
			RedirectVia:    via,
			LatencyMS:      15 + b.rng.Intn(30),
			SetCookies: []CookieSpec{{
				Name: "syncid", MaxAge: 86400 * 180, Secure: true, SameSite: "None",
				VolatileName: b.rng.Float64() < 0.04,
			}},
		})
	}
	// Live-measurement web socket.
	if b.rng.Float64() < 0.12 {
		script.Children = append(script.Children, &Resource{
			ID:          b.id("trws"),
			URL:         fmt.Sprintf("wss://%s/live", tr.Domain),
			Type:        measurement.TypeWebSocket,
			IncludeProb: 0.9,
			LatencyMS:   30 + b.rng.Intn(40),
		})
	}
	// Bot detection: a GUI-check beacon, rare (headless mode has no
	// significant effect in the paper).
	if b.rng.Float64() < 0.05 {
		script.Children = append(script.Children, &Resource{
			ID:          b.id("trgui"),
			URL:         fmt.Sprintf("https://%s/track/env", tr.Domain),
			Type:        measurement.TypeBeacon,
			IncludeProb: 0.9,
			GUIOnly:     true,
			LatencyMS:   10 + b.rng.Intn(20),
		})
	}
	return script
}

// addAdSlots embeds ad slots. Each ad network contributes one tag script;
// slots hang beneath it as iframes whose content is chosen per visit from a
// set of creatives (the auction). Below-the-fold slots are lazy — the
// dominant source of the NoAction profile's smaller trees (§4.4).
func (b *pageBuilder) addAdSlots(root *Resource, slots int) {
	if slots <= 0 {
		return
	}
	tagByNetwork := make(map[*Service]*Resource)
	for i := 0; i < slots; i++ {
		adnet := b.p.adNetworks[b.rng.Intn(len(b.p.adNetworks))]
		tag := tagByNetwork[adnet]
		if tag == nil {
			tag = &Resource{
				ID:          b.id("adtag"),
				URL:         fmt.Sprintf("https://%s/js/adtag.js", adnet.Domain),
				Type:        measurement.TypeScript,
				IncludeProb: 1,
				LatencyMS:   30 + b.rng.Intn(70),
			}
			tagByNetwork[adnet] = tag
			root.Children = append(root.Children, tag)
		}
		lazySlot := b.rng.Float64() < 0.85
		if i == 0 {
			lazySlot = b.rng.Float64() < 0.3
		}
		// Bid request precedes the frame.
		tag.Children = append(tag.Children, &Resource{
			ID:             b.id("adbid"),
			URL:            fmt.Sprintf("https://%s/bid", adnet.Domain),
			Type:           measurement.TypeXHR,
			IncludeProb:    0.95,
			Lazy:           lazySlot,
			VolatileParams: []string{"slot", "auction"},
			LatencyMS:      40 + b.rng.Intn(120),
		})
		frame := &Resource{
			ID:          b.id("adframe"),
			URL:         fmt.Sprintf("https://%s/frame/slot-%d", adnet.Domain, i),
			Type:        measurement.TypeSubFrame,
			IncludeProb: 0.85, // fill rate
			Lazy:        lazySlot,
			LatencyMS:   100 + b.rng.Intn(200),
			StallProb:   0.015,
			StallMS:     15000 + b.rng.Intn(10000),
		}
		// Impression and viewability pixels load directly inside the frame
		// document (parser-inserted → the frame is their parent; §5.3's
		// 34% of tracker parents are subframes).
		frame.Children = append(frame.Children, &Resource{
			ID:             b.id("adimp"),
			URL:            fmt.Sprintf("https://%s/track/imp", adnet.Domain),
			Type:           measurement.TypeImage,
			IncludeProb:    0.95,
			VolatileParams: []string{"imp"},
			LatencyMS:      8 + b.rng.Intn(20),
		})
		for v := 0; v < 1; v++ {
			vtr := b.u.trackers[b.rng.Intn(len(b.u.trackers))]
			frame.Children = append(frame.Children, &Resource{
				ID:             b.id("advwpx"),
				URL:            fmt.Sprintf("https://%s/track/view", vtr.Domain),
				Type:           measurement.TypeImage,
				IncludeProb:    0.85,
				VolatileParams: []string{"slot"},
				LatencyMS:      8 + b.rng.Intn(20),
			})
		}
		nCreatives := 2 + b.rng.Intn(2)
		for c := 0; c < nCreatives; c++ {
			frame.Variants = append(frame.Variants, b.creative(adnet))
		}
		tag.Children = append(tag.Children, frame)
	}
}

// creative builds one ad creative bundle hosted on a random ad host.
func (b *pageBuilder) creative(adnet *Service) []*Resource {
	host := b.u.adHosts[b.rng.Intn(len(b.u.adHosts))]
	volatile := b.rng.Float64() < 0.45
	base := fmt.Sprintf("https://%s/creative/c%05d", host.Domain, b.rng.Intn(100000))
	if volatile {
		base = fmt.Sprintf("https://%s/creative/%s", host.Domain, VolatilePathMarker)
	}
	script := &Resource{
		ID:           b.id("cradjs"),
		URL:          base + "/ad.js",
		Type:         measurement.TypeScript,
		IncludeProb:  1,
		VolatilePath: volatile,
		LatencyMS:    25 + b.rng.Intn(60),
	}
	// Creative artwork comes from the host's stable asset library: the
	// same image URL recurs under whichever creative script references it,
	// so artwork nodes keep their identity while their parents rotate.
	nImgs := 1 + b.rng.Intn(3)
	for j := 0; j < nImgs; j++ {
		script.Children = append(script.Children, &Resource{
			ID:          b.id("crimg"),
			URL:         fmt.Sprintf("https://%s/library/img-%03d.jpg", host.Domain, b.rng.Intn(25)),
			Type:        measurement.TypeImage,
			IncludeProb: 0.97,
			LatencyMS:   15 + b.rng.Intn(40),
		})
	}
	// Click/impression tracking back to the ad network.
	script.Children = append(script.Children, &Resource{
		ID:             b.id("crtrk"),
		URL:            fmt.Sprintf("https://%s/track/click", adnet.Domain),
		Type:           measurement.TypeBeacon,
		IncludeProb:    0.9,
		VolatileParams: []string{"imp"},
		LatencyMS:      10 + b.rng.Intn(20),
	})
	// Viewability measurement by one of the site's own trackers: the same
	// pixel URL recurs beneath whichever creative wins the auction, so its
	// attributed parent flips between visits.
	if len(b.p.trackers) > 0 && b.rng.Float64() < 0.5 {
		tr := b.p.trackers[b.rng.Intn(len(b.p.trackers))]
		script.Children = append(script.Children, &Resource{
			ID:             b.id("crview"),
			URL:            fmt.Sprintf("https://%s/pixel.gif", tr.Domain),
			Type:           measurement.TypeImage,
			IncludeProb:    0.85,
			VolatileParams: []string{"cid"},
			LatencyMS:      8 + b.rng.Intn(20),
			SetCookies: []CookieSpec{{
				Name: "vw", MaxAge: 86400 * 30, Secure: true, SameSite: "None",
				VolatileName: b.rng.Float64() < 0.08,
			}},
		})
	}
	// Some creatives nest further frames (rich media), deepening the tree.
	if b.rng.Float64() < 0.2 {
		script.Children = append(script.Children, b.nestedAdFrame(adnet, 0))
	}
	// CSP violation reports fire rarely and unpredictably (Table 4b's
	// least-similar resource type).
	csp := &Resource{
		ID:          b.id("crcsp"),
		URL:         fmt.Sprintf("https://%s/csp-report", b.p.domain),
		Type:        measurement.TypeCSPReport,
		IncludeProb: 0.08,
		LatencyMS:   5 + b.rng.Intn(10),
	}
	script.Children = append(script.Children, csp)
	return []*Resource{script}
}

// nestedAdFrame builds a rich-media frame; level bounds the recursion —
// rich media occasionally nests two or three frames deep, producing the
// long depth tail of Fig. 1.
func (b *pageBuilder) nestedAdFrame(adnet *Service, level int) *Resource {
	inner := b.u.adHosts[b.rng.Intn(len(b.u.adHosts))]
	volatile := b.rng.Float64() < 0.4
	base := fmt.Sprintf("https://%s/inner/f%04d", inner.Domain, b.rng.Intn(10000))
	if volatile {
		base = fmt.Sprintf("https://%s/inner/%s", inner.Domain, VolatilePathMarker)
	}
	sub := &Resource{
		ID:           b.id("crsub"),
		URL:          base + "/frame",
		Type:         measurement.TypeSubFrame,
		IncludeProb:  0.8,
		VolatilePath: volatile,
		LatencyMS:    80 + b.rng.Intn(150),
	}
	for j := 0; j < 1+b.rng.Intn(2); j++ {
		sub.Children = append(sub.Children, &Resource{
			ID:           b.id("crsubimg"),
			URL:          fmt.Sprintf("%s/img-%d.png", base, j),
			Type:         measurement.TypeImage,
			IncludeProb:  0.95,
			VolatilePath: volatile,
			LatencyMS:    15 + b.rng.Intn(30),
		})
	}
	sub.Children = append(sub.Children, &Resource{
		ID:             b.id("crsubtrk"),
		URL:            fmt.Sprintf("https://%s/track/nested", adnet.Domain),
		Type:           measurement.TypeBeacon,
		IncludeProb:    0.85,
		VolatileParams: []string{"imp"},
		LatencyMS:      10 + b.rng.Intn(20),
	})
	if level < 2 && b.rng.Float64() < 0.3 {
		sub.Children = append(sub.Children, b.nestedAdFrame(adnet, level+1))
	}
	return sub
}

func (b *pageBuilder) addSocialWidget(root *Resource) {
	soc := b.p.social
	script := &Resource{
		ID:          b.id("socjs"),
		URL:         fmt.Sprintf("https://%s/widget.js", soc.Domain),
		Type:        measurement.TypeScript,
		IncludeProb: 1,
		LatencyMS:   25 + b.rng.Intn(60),
	}
	frame := &Resource{
		ID:          b.id("socframe"),
		URL:         fmt.Sprintf("https://%s/embed/feed", soc.Domain),
		Type:        measurement.TypeSubFrame,
		IncludeProb: 0.95,
		Lazy:        b.rng.Float64() < 0.6,
		LatencyMS:   80 + b.rng.Intn(150),
	}
	for j := 0; j < 2+b.rng.Intn(3); j++ {
		frame.Children = append(frame.Children, &Resource{
			ID:          b.id("socimg"),
			URL:         fmt.Sprintf("https://%s/media/post-%03d.jpg", soc.Domain, b.rng.Intn(500)),
			Type:        measurement.TypeImage,
			IncludeProb: 0.7, // feed content rotates
			LatencyMS:   15 + b.rng.Intn(40),
		})
	}
	frame.Children = append(frame.Children, &Resource{
		ID:             b.id("socxhr"),
		URL:            fmt.Sprintf("https://%s/api/feed", soc.Domain),
		Type:           measurement.TypeXHR,
		IncludeProb:    0.95,
		VolatileParams: []string{"cursor"},
		LatencyMS:      30 + b.rng.Intn(80),
	})
	script.Children = append(script.Children, frame)
	root.Children = append(root.Children, script)
}

func (b *pageBuilder) addCMP(root *Resource) {
	cmp := b.p.cmp
	script := &Resource{
		ID:          b.id("cmpjs"),
		URL:         fmt.Sprintf("https://%s/cmp.js", cmp.Domain),
		Type:        measurement.TypeScript,
		IncludeProb: 1,
		LatencyMS:   20 + b.rng.Intn(40),
	}
	script.Children = append(script.Children, &Resource{
		ID:          b.id("cmpcfg"),
		URL:         fmt.Sprintf("https://%s/consent/config.json", cmp.Domain),
		Type:        measurement.TypeXHR,
		IncludeProb: 0.98,
		LatencyMS:   25 + b.rng.Intn(60),
		SetCookies: []CookieSpec{{
			Name: "euconsent", MaxAge: 86400 * 365, SameSite: "Lax",
		}},
	})
	root.Children = append(root.Children, script)
}
