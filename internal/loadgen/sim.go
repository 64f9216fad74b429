package loadgen

import (
	"container/heap"
	"math/rand"

	"webmeasure/internal/metrics"
	"webmeasure/internal/service"
	"webmeasure/internal/service/scaler"
)

// The discrete-event simulator behind sim mode. It models the job
// service's serving path — bounded queue, autoscaling worker pool, LRU
// result cache keyed on the real spec canonicalization — on simulated
// time, and records everything into a real metrics.Registry under the
// same names the service uses ("service.queue_wait_ms", "service.job_ms",
// "service.workers_current", ...). The SLO report is then computed from
// the registry's Prometheus exposition, so the exact scrape-and-parse
// path a live run uses is exercised by every golden test. The scaling
// decisions are the real scaler.Decide on the simulated clock: the
// scale-event sequence the report prints is what the service would do
// under this load.

// event kinds, ordered only for documentation — ties on time break on
// sequence number, which encodes scheduling order deterministically.
const (
	evArrival = iota // open-loop arrival (draws a spec, submits)
	evSubmit         // closed-loop client submission
	evFinish         // a running job completes
	evScale          // scaler evaluation tick
)

type simJob struct {
	key      string
	costUS   int64
	submitUS int64
	clientOf int // closed-loop client waiting on this job, -1 for open-loop
}

type simEvent struct {
	atUS   int64
	seq    int
	kind   int
	client int
	job    *simJob
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].atUS != h[j].atUS {
		return h[i].atUS < h[j].atUS
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// simLRU is the simulated result cache: identical keying and eviction
// order to the service's resultCache, holding only membership.
type simLRU struct {
	cap   int
	keys  []string // eviction order, oldest first
	items map[string]bool
}

func newSimLRU(cap int) *simLRU {
	return &simLRU{cap: cap, items: make(map[string]bool, cap)}
}

func (c *simLRU) get(key string) bool {
	if !c.items[key] {
		return false
	}
	c.touch(key)
	return true
}

func (c *simLRU) put(key string) {
	if c.items[key] {
		c.touch(key)
		return
	}
	if len(c.keys) >= c.cap {
		oldest := c.keys[0]
		c.keys = c.keys[1:]
		delete(c.items, oldest)
	}
	c.keys = append(c.keys, key)
	c.items[key] = true
}

func (c *simLRU) touch(key string) {
	for i, k := range c.keys {
		if k == key {
			c.keys = append(append(append([]string(nil), c.keys[:i]...), c.keys[i+1:]...), key)
			return
		}
	}
}

// sim is one simulation run's state.
type sim struct {
	cfg   Config
	mixer *mixer
	reg   *metrics.Registry

	events eventHeap
	seq    int

	queue []*simJob
	busy  int
	cur   int
	cache *simLRU

	// scaler state, maintained exactly like the service pool's
	lastScaleMS int64
	lowSinceMS  int64
	waits       []float64 // recent queue-wait ring (ms)
	waitAtMS    []int64   // per-sample timestamps, same indices
	waitsN      int
	scaleLog    []scaler.Event

	endUS int64 // latest event time seen (the drain end)

	cSubmitted, cCompleted, cRejected *metrics.Counter
	cCacheHits, cCacheMisses          *metrics.Counter
	cScaleUp, cScaleDown              *metrics.Counter
	gWorkers                          *metrics.Gauge
	hQueueMS, hJobMS, hE2EMS          *metrics.Histogram
}

// simWaitRing matches the service pool's recent-sample window size.
const simWaitRing = 128

// runSim executes one deterministic simulation and returns the report.
func runSim(cfg Config) *Report {
	rng := rand.New(rand.NewSource(cfg.Seed))
	reg := metrics.New()
	s := &sim{
		cfg:         cfg,
		mixer:       newMixer(cfg, rng),
		reg:         reg,
		cur:         cfg.Service.MinWorkers,
		cache:       newSimLRU(cfg.Service.CacheSize),
		lastScaleMS: -1,
		lowSinceMS:  -1,
		waits:       make([]float64, 0, simWaitRing),
		waitAtMS:    make([]int64, 0, simWaitRing),

		cSubmitted:   reg.Counter("service.jobs.submitted"),
		cCompleted:   reg.Counter("service.jobs.completed"),
		cRejected:    reg.Counter("service.jobs.rejected"),
		cCacheHits:   reg.Counter("service.cache.hits"),
		cCacheMisses: reg.Counter("service.cache.misses"),
		cScaleUp:     reg.Counter(metrics.Labeled("service.scale_events.total", "dir", "up")),
		cScaleDown:   reg.Counter(metrics.Labeled("service.scale_events.total", "dir", "down")),
		gWorkers:     reg.Gauge("service.workers_current"),
		hQueueMS:     reg.Histogram("service.queue_wait_ms"),
		hJobMS:       reg.Histogram("service.job_ms"),
		hE2EMS:       reg.Histogram("loadgen.e2e_ms"),
	}
	s.gWorkers.Set(int64(s.cur))

	// Seed the schedule: scaler ticks across the whole run, then either
	// the open-loop arrival process or one submission per closed-loop
	// client (staggered 1ms apart so no two clients are synchronized).
	for t := cfg.Service.ScaleIntervalMS; t <= cfg.DurationMS; t += cfg.Service.ScaleIntervalMS {
		s.push(simEvent{atUS: t * 1000, kind: evScale})
	}
	if cfg.Loop == "open" {
		arrivals := newArrivals(cfg, rng)
		if at := arrivals.next(); at >= 0 {
			s.push(simEvent{atUS: at, kind: evArrival})
		}
		s.runLoop(arrivals)
	} else {
		for c := 0; c < cfg.Clients; c++ {
			s.push(simEvent{atUS: int64(c) * 1000, kind: evSubmit, client: c})
		}
		s.runLoop(nil)
	}

	durMS := s.endUS / 1000
	if durMS < cfg.DurationMS {
		durMS = cfg.DurationMS
	}
	return buildReport(cfg, expositionOf(reg), s.scaleLog, durMS, s.cur)
}

func (s *sim) push(e simEvent) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

func (s *sim) runLoop(arrivals *arrivalProcess) {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(simEvent)
		if e.atUS > s.endUS {
			s.endUS = e.atUS
		}
		switch e.kind {
		case evArrival:
			s.submit(e.atUS, -1)
			if at := arrivals.next(); at >= 0 {
				s.push(simEvent{atUS: at, kind: evArrival})
			}
		case evSubmit:
			s.submit(e.atUS, e.client)
		case evFinish:
			s.finish(e.atUS, e)
		case evScale:
			s.evaluateScale(e.atUS / 1000)
		}
	}
}

// submit models the service's Submit path: cache hit answers instantly,
// a full queue rejects, anything else queues (and starts immediately when
// a worker is free). client >= 0 marks a closed-loop submission, whose
// next think-time cycle is scheduled off the outcome.
func (s *sim) submit(atUS int64, client int) {
	spec := s.mixer.spec()
	_, key, err := spec.Canonical(mixLimits)
	if err != nil {
		// The mixer only emits specs the service accepts; a validation
		// error here is a harness bug worth failing loudly over.
		panic("loadgen: mixer produced an invalid spec: " + err.Error())
	}
	s.cSubmitted.Inc()
	job := &simJob{key: key, costUS: s.mixer.costUS(spec), submitUS: atUS, clientOf: client}
	switch {
	case s.cache.get(key):
		s.cCacheHits.Inc()
		s.hE2EMS.Observe(0)
		s.clientNext(atUS, client)
	case len(s.queue) >= s.cfg.Service.QueueDepth:
		s.cRejected.Inc()
		s.clientNext(atUS, client)
	default:
		// A closed-loop client waits for this job: its next submission is
		// scheduled at finish time via clientOf.
		s.queue = append(s.queue, job)
		s.startIdle(atUS)
	}
}

// clientNext schedules a closed-loop client's next submission after its
// think time; open-loop submissions (client < 0) have none.
func (s *sim) clientNext(atUS int64, client int) {
	if client < 0 {
		return
	}
	next := atUS + s.cfg.ThinkMS*1000
	if next/1000 > s.cfg.DurationMS {
		return
	}
	s.push(simEvent{atUS: next, kind: evSubmit, client: client})
}

// startIdle puts queued jobs onto free workers.
func (s *sim) startIdle(atUS int64) {
	for s.busy < s.cur && len(s.queue) > 0 {
		job := s.queue[0]
		s.queue = s.queue[1:]
		s.busy++
		s.cCacheMisses.Inc()
		waitMS := float64(atUS-job.submitUS) / 1000
		s.hQueueMS.Observe(waitMS)
		s.observeWait(waitMS, atUS/1000)
		s.push(simEvent{atUS: atUS + job.costUS, kind: evFinish, job: job})
	}
}

func (s *sim) finish(atUS int64, e simEvent) {
	job := e.job
	s.busy--
	s.cCompleted.Inc()
	s.cache.put(job.key)
	s.hJobMS.Observe(float64(job.costUS) / 1000)
	s.hE2EMS.Observe(float64(atUS-job.submitUS) / 1000)
	s.clientNext(atUS, job.clientOf)
	s.startIdle(atUS)
}

func (s *sim) observeWait(ms float64, atMS int64) {
	if len(s.waits) < simWaitRing {
		s.waits = append(s.waits, ms)
		s.waitAtMS = append(s.waitAtMS, atMS)
	} else {
		s.waits[s.waitsN%simWaitRing] = ms
		s.waitAtMS[s.waitsN%simWaitRing] = atMS
	}
	s.waitsN++
}

// recentP95 ages samples out of the window exactly like the service
// pool's p95Since, so the sim's scale decisions track the real pool's.
func (s *sim) recentP95(nowMS int64) float64 {
	fresh := make([]float64, 0, len(s.waits))
	for i, v := range s.waits {
		if nowMS-s.waitAtMS[i] <= service.WaitWindowMS {
			fresh = append(fresh, v)
		}
	}
	return p95Of(fresh)
}

// evaluateScale mirrors Server.evaluateScale on the simulated clock: same
// inputs, same low-load window bookkeeping, same decision function.
func (s *sim) evaluateScale(nowMS int64) {
	in := scaler.Inputs{
		NowMS:                nowMS,
		QueueDepth:           len(s.queue),
		BusyWorkers:          s.busy,
		CurrentWorkers:       s.cur,
		RecentP95QueueWaitMS: s.recentP95(nowMS),
		LastScaleMS:          s.lastScaleMS,
	}
	if scaler.LowLoad(s.cfg.Service.Scaler, in) {
		if s.lowSinceMS < 0 {
			s.lowSinceMS = nowMS
		}
	} else {
		s.lowSinceMS = -1
	}
	in.LowLoadSinceMS = s.lowSinceMS
	d := scaler.Decide(s.cfg.Service.Scaler, in)
	if d.Target == s.cur {
		return
	}
	if d.Target > s.cur {
		s.cScaleUp.Inc()
	} else {
		s.cScaleDown.Inc()
	}
	s.scaleLog = append(s.scaleLog, scaler.Event{
		AtMS:           nowMS,
		From:           s.cur,
		To:             d.Target,
		Reason:         d.Reason,
		QueueDepth:     in.QueueDepth,
		P95QueueWaitMS: in.RecentP95QueueWaitMS,
	})
	s.cur = d.Target
	s.gWorkers.Set(int64(s.cur))
	s.lastScaleMS = nowMS
	s.startIdle(nowMS * 1000)
}
