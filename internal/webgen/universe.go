package webgen

import (
	"fmt"
	"math/rand"
	"strings"

	"webmeasure/internal/tranco"
)

// ServiceKind classifies a third-party service.
type ServiceKind uint8

// Service kinds in the synthetic ecosystem.
const (
	KindAdNetwork ServiceKind = iota
	KindTracker
	KindCDN
	KindSocial
	KindTagManager
	KindCMP
	KindAdHost // creative-hosting long tail behind ad networks
)

// String names the kind.
func (k ServiceKind) String() string {
	switch k {
	case KindAdNetwork:
		return "ad_network"
	case KindTracker:
		return "tracker"
	case KindCDN:
		return "cdn"
	case KindSocial:
		return "social"
	case KindTagManager:
		return "tag_manager"
	case KindCMP:
		return "cmp"
	case KindAdHost:
		return "ad_host"
	default:
		return fmt.Sprintf("service_kind(%d)", uint8(k))
	}
}

// Service is one third-party provider.
type Service struct {
	Name   string
	Domain string // registrable domain
	Kind   ServiceKind
	// Tracking marks services whose URLs the filter list targets.
	Tracking bool
}

// Config sizes the synthetic universe. The zero value is unusable; use
// DefaultConfig.
type Config struct {
	Seed int64

	AdNetworks  int
	Trackers    int
	CDNs        int
	Social      int
	TagManagers int
	CMPs        int
	AdHosts     int

	// PagesPerSite bounds the number of subpages generated per site (the
	// paper collects up to 25).
	PagesPerSite int
}

// DefaultConfig returns a universe sized for laptop-scale runs while
// keeping the ecosystem diverse enough for the paper's distributions.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:         seed,
		AdNetworks:   24,
		Trackers:     48,
		CDNs:         16,
		Social:       8,
		TagManagers:  6,
		CMPs:         5,
		AdHosts:      60,
		PagesPerSite: 25,
	}
}

// Universe is the generated web: the third-party ecosystem plus the site
// generator. It is immutable after New and safe for concurrent use.
type Universe struct {
	cfg Config

	adNetworks  []*Service
	trackers    []*Service
	cdns        []*Service
	social      []*Service
	tagManagers []*Service
	cmps        []*Service
	adHosts     []*Service

	orgs        []*Organization
	orgByDomain map[string]string
}

// New generates a universe from cfg.
func New(cfg Config) *Universe {
	if cfg.PagesPerSite <= 0 {
		cfg.PagesPerSite = 25
	}
	u := &Universe{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	u.adNetworks = makeServices(rng, cfg.AdNetworks, KindAdNetwork, "ads", true)
	u.trackers = makeServices(rng, cfg.Trackers, KindTracker, "metrics", true)
	u.cdns = makeServices(rng, cfg.CDNs, KindCDN, "cdn", false)
	u.social = makeServices(rng, cfg.Social, KindSocial, "social", false)
	u.tagManagers = makeServices(rng, cfg.TagManagers, KindTagManager, "tags", false)
	u.cmps = makeServices(rng, cfg.CMPs, KindCMP, "consent", false)
	u.adHosts = makeServices(rng, cfg.AdHosts, KindAdHost, "adcontent", false)
	u.buildEntities(rng)
	return u
}

func makeServices(rng *rand.Rand, n int, kind ServiceKind, suffix string, tracking bool) []*Service {
	out := make([]*Service, n)
	seen := map[string]bool{}
	for i := range out {
		name := serviceName(rng)
		domain := fmt.Sprintf("%s-%s.example", name, suffix)
		for seen[domain] {
			domain = fmt.Sprintf("%s%d-%s.example", name, i, suffix)
		}
		seen[domain] = true
		out[i] = &Service{Name: name, Domain: domain, Kind: kind, Tracking: tracking}
	}
	return out
}

var nameSyllables = []string{"ad", "bid", "click", "data", "pix", "sig", "sync", "tag", "trk", "vast", "yld", "zed", "omni", "meta", "next", "pro", "max", "net"}

func serviceName(rng *rand.Rand) string {
	a := nameSyllables[rng.Intn(len(nameSyllables))]
	b := nameSyllables[rng.Intn(len(nameSyllables))]
	return a + b
}

// Config returns the universe's configuration.
func (u *Universe) Config() Config { return u.cfg }

// Services returns all services of a kind. The slice must not be modified.
func (u *Universe) Services(kind ServiceKind) []*Service {
	switch kind {
	case KindAdNetwork:
		return u.adNetworks
	case KindTracker:
		return u.trackers
	case KindCDN:
		return u.cdns
	case KindSocial:
		return u.social
	case KindTagManager:
		return u.tagManagers
	case KindCMP:
		return u.cmps
	case KindAdHost:
		return u.adHosts
	default:
		return nil
	}
}

// AllServices returns every service in the universe.
func (u *Universe) AllServices() []*Service {
	var out []*Service
	for _, k := range []ServiceKind{KindAdNetwork, KindTracker, KindCDN, KindSocial, KindTagManager, KindCMP, KindAdHost} {
		out = append(out, u.Services(k)...)
	}
	return out
}

// FilterListText renders the universe's tracking filter list in EasyList
// (Adblock Plus) syntax: domain rules for every tracking service plus the
// generic path patterns the ecosystem's beacons use. This plays the role
// EasyList plays in the paper (§3.2).
func (u *Universe) FilterListText() string {
	var b strings.Builder
	b.WriteString("! Synthetic EasyList for the generated web universe\n")
	b.WriteString("! Generic tracking endpoints\n")
	b.WriteString("/track/\n")
	b.WriteString("/pixel.$image\n")
	b.WriteString("/beacon^\n")
	b.WriteString("/sync?\n")
	b.WriteString("! Tracking service domains\n")
	for _, s := range u.AllServices() {
		if s.Tracking {
			fmt.Fprintf(&b, "||%s^\n", s.Domain)
		}
	}
	b.WriteString("! Allow consented analytics documentation pages\n")
	b.WriteString("@@||docs.\n")
	return b.String()
}

// PrivacyListText renders a second, EasyPrivacy-style list: it targets the
// telemetry the primary list leaves alone — tag managers, consent
// platforms, and social-widget data endpoints. §6 discusses stacking such
// lists: coverage grows, but the notion of "tracking" shifts with it.
func (u *Universe) PrivacyListText() string {
	var b strings.Builder
	b.WriteString("! Synthetic EasyPrivacy for the generated web universe\n")
	for _, s := range u.Services(KindTagManager) {
		fmt.Fprintf(&b, "||%s^$third-party\n", s.Domain)
	}
	for _, s := range u.Services(KindCMP) {
		fmt.Fprintf(&b, "||%s^$third-party\n", s.Domain)
	}
	b.WriteString("! Social telemetry\n")
	b.WriteString("/api/feed$third-party\n")
	b.WriteString("! First-party analytics endpoints\n")
	b.WriteString("/api/v1/data$xmlhttprequest\n")
	return b.String()
}

// pick returns a deterministic, site-stable selection of n services from
// pool using the provided rng (already seeded per site/page).
func pick(rng *rand.Rand, pool []*Service, n int) []*Service {
	if n >= len(pool) {
		out := make([]*Service, len(pool))
		copy(out, pool)
		return out
	}
	idx := rng.Perm(len(pool))[:n]
	out := make([]*Service, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// unreachableProb is the share of sites not meant for humans (ad/CDN
// landing pages): the first draw of a site's stream.
const unreachableProb = 0.01

// GenerateSite builds the full site (landing page + subpages) for a ranked
// entry. Generation is deterministic in (cfg.Seed, entry).
func (u *Universe) GenerateSite(entry tranco.Entry) *Site {
	seed := mix(uint64(u.cfg.Seed), hash64("site", entry.Site))
	rng := rand.New(rand.NewSource(int64(seed)))

	s := &Site{Domain: entry.Site, Rank: entry.Rank}
	if rng.Float64() < unreachableProb {
		s.Unreachable = true
	}

	profile := buildSiteProfile(u, rng, entry.Site, entry.Rank)
	nPages := u.pageCount(rng)

	links := make([]string, nPages)
	for i := range links {
		links[i] = subpageURL(s.Domain, i+1)
	}
	// The landing page links a subset of the subpages directly; the rest
	// are only reachable through other subpages, so a discovery crawl with
	// too few landing links must recurse (§3.1.2 "We repeated the process
	// recursively if the landing page did not hold enough links").
	direct := links
	if len(links) > 4 && rng.Float64() < 0.4 {
		direct = links[:len(links)/2]
	}
	// Pages draw from their own generator, which generatePage reseeds (so
	// its first seed is never read): the site stream keeps drawing
	// sub-links between them.
	gen := rand.New(rand.NewSource(0))
	s.Landing = u.generatePage(gen, profile, fmt.Sprintf("https://%s/", s.Domain), "landing", direct)
	s.Pages = make([]*Page, nPages)
	for i, link := range links {
		// Subpages cross-link a few siblings (and occasionally external
		// sites, which discovery must filter out).
		var sub []string
		for j := 0; j < 3 && nPages > 1; j++ {
			k := rng.Intn(nPages)
			if links[k] != link {
				sub = append(sub, links[k])
			}
		}
		if rng.Float64() < 0.3 {
			sub = append(sub, "https://partner-site.example/promo")
		}
		s.Pages[i] = u.generatePage(gen, profile, link, fmt.Sprintf("p%02d", i+1), sub)
	}
	return s
}

// pageCount draws a site's number of subpages from its site stream, right
// after the site profile. Most sites have plenty of links; some are
// link-poor (paper: min 0, avg 14.6 of 25). The link-poor bound is
// clamped to 1 so a one-page budget draws 0 instead of panicking; it is
// unchanged, and so is the random stream, from two pages up.
func (u *Universe) pageCount(rng *rand.Rand) int {
	switch {
	case rng.Float64() < 0.08:
		return rng.Intn(max(u.cfg.PagesPerSite/2, 1))
	case rng.Float64() < 0.3:
		return u.cfg.PagesPerSite/2 + rng.Intn(u.cfg.PagesPerSite/2+1)
	}
	return u.cfg.PagesPerSite
}

// subpageURL names a site's n-th subpage.
func subpageURL(domain string, n int) string {
	return fmt.Sprintf("https://%s/page-%02d", domain, n)
}
