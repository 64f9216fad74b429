package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"webmeasure"
	"webmeasure/internal/drift"
	"webmeasure/internal/report"
	"webmeasure/internal/service"
)

// The monitor workload: in-process servers in drift-monitor mode, each
// running epochs back to back. It is the only workload on drift
// (snapshot, sequential and pinned diffs, alert rules, artifact rewrite),
// and it renders no report. One monitor watches one universe, whose size
// sets every epoch's cost, so a run chains several monitors of different
// seeds; each starts with an untimed warm-up epoch 0, and every run times
// the same epoch indices.
const (
	monitorSites  = 10
	monitorPages  = 4
	monitorEpochs = 16  // timed epochs per monitor
	monitorRate   = 6.0 // epochs/s; sizes the epoch count
)

func monitorSpec(seed int64, k int) service.JobSpec {
	return service.JobSpec{
		Seed:         deriveSeed(seed, "monitor", k),
		Sites:        monitorSites,
		PagesPerSite: monitorPages,
		Workers:      1,
		SiteWorkers:  1,
	}
}

// monitorRound is one monitor's run: epoch 0, then monitorEpochs timed
// epochs, each from the start of its Run to the start of the next one's
// (the monitor's completion ends the last).
type monitorRound struct {
	dir    string
	setup  float64 // server start to the start of epoch 1
	starts map[int]time.Time
	done   time.Time
	before usage // at the start of epoch 1
	after  usage
	status service.MonitorStatus
	runs   []runRecord
	alerts int64
	// heapBefore and heapAfter are forced-GC live-heap probes at epoch 1
	// and after the last epoch, taken only in traced runs.
	heapBefore, heapAfter float64
}

// end returns when epoch e's op ended.
func (r *monitorRound) end(e int) (time.Time, bool) {
	if e == monitorEpochs {
		return r.done, true
	}
	t, ok := r.starts[e+1]
	return t, ok
}

// runMonitorRound runs monitor k of a run in a fresh state directory and
// stops its server.
func runMonitorRound(o options, k int) (*monitorRound, error) {
	r := &monitorRound{dir: filepath.Join(o.dir, fmt.Sprintf("monitor-%d", k)), starts: make(map[int]time.Time)}
	var mu sync.Mutex
	log := &runLog{onStart: func(cfg webmeasure.Config) error {
		mu.Lock()
		defer mu.Unlock()
		if cfg.Epoch == 1 {
			if o.trace {
				r.heapBefore = liveHeapMB()
			}
			r.before = readUsage()
		}
		r.starts[cfg.Epoch] = time.Now()
		return nil
	}}
	start := time.Now()
	ls, err := startServer(log, &service.MonitorConfig{
		Spec:     monitorSpec(o.seed, k),
		Epochs:   1 + monitorEpochs,
		Interval: 0,
		StateDir: r.dir,
		PinEpoch: -1,
	})
	if err != nil {
		return nil, err
	}
	<-ls.srv.MonitorDone()
	r.done = time.Now()
	r.after = readUsage()
	r.after.at = r.done
	if o.trace {
		r.heapAfter = liveHeapMB()
	}
	r.status, _ = ls.srv.MonitorStatus()
	r.runs = ls.log.records()
	r.alerts = ls.reg.Counter("drift.alerts.total").Value()
	mu.Lock()
	if t, ok := r.starts[1]; ok {
		r.setup = t.Sub(start).Seconds()
	}
	mu.Unlock()
	return r, ls.close()
}

func runMonitor(o options) (*result, error) {
	rounds := make([]*monitorRound, opCount(o, monitorRate, monitorEpochs)/monitorEpochs)
	var setups []float64
	var phase timedPhase
	var tally outcome
	for k := range rounds {
		r, err := runMonitorRound(o, k)
		if err != nil {
			return nil, err
		}
		rounds[k] = r
		setups = append(setups, r.setup)
		phase.add(r.before, r.after)
		for e := 1; e <= monitorEpochs; e++ {
			i := k*monitorEpochs + e - 1
			begin, began := r.starts[e]
			end, ended := r.end(e)
			if !began || !ended {
				phase.latenciesMS = append(phase.latenciesMS, 0)
				tally.op(i, fmt.Errorf("%w: epoch %d did not run (monitor error %q)", errCheck, e, r.status.LastError))
				continue
			}
			phase.latenciesMS = append(phase.latenciesMS, float64(end.Sub(begin))/float64(time.Millisecond))
			tally.op(i, checkEpoch(r.dir, e, r.status))
		}
		if k > 0 { // a traced run replays only the first monitor
			if err := os.RemoveAll(r.dir); err != nil {
				return nil, err
			}
		}
	}
	m := endToEnd(setups, phase)
	if o.trace {
		var err error
		if m, err = traceMonitor(context.Background(), o, rounds, phase, &tally); err != nil {
			return nil, err
		}
	}
	reportErrors(o, tally)
	return tally.result(m), nil
}

// checkEpoch checks that the monitor persisted epoch e's baseline, that it
// decodes and carries its own epoch, and that the monitor reported no
// error.
func checkEpoch(dir string, e int, st service.MonitorStatus) error {
	if st.LastError != "" {
		return fmt.Errorf("%w: monitor error %q", errCheck, st.LastError)
	}
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("baseline-e%04d.json", e)))
	if err != nil {
		return fmt.Errorf("%w: %v", errCheck, err)
	}
	b, err := drift.DecodeBaseline(data)
	if err != nil {
		return fmt.Errorf("%w: epoch %d baseline: %v", errCheck, e, err)
	}
	if b.Meta.Epoch != e {
		return fmt.Errorf("%w: baseline of epoch %d carries epoch %d", errCheck, e, b.Meta.Epoch)
	}
	return nil
}

// traceMonitor records every timed epoch's span and its Run (from the
// Runner hook), then replays the first monitor's epochs 0..n; epoch 0 only
// seeds the diffs.
func traceMonitor(ctx context.Context, o options, rounds []*monitorRound, phase timedPhase, t *outcome) (map[string]metric, error) {
	n := len(phase.latenciesMS)
	extra := runtimeMetrics(phase, n)
	var retained, live float64
	var alerts int64
	tr := newTracer(o.start)
	for k, rd := range rounds {
		retained += rd.heapAfter - rd.heapBefore
		live += rd.heapAfter
		alerts += rd.alerts
		runs := make(map[int]runRecord)
		for _, rec := range rd.runs {
			runs[rec.cfg.Epoch] = rec
		}
		for e := 1; e <= monitorEpochs; e++ {
			end, ok := rd.end(e)
			rec, ran := runs[e]
			if !ok || !ran {
				continue
			}
			op := k*monitorEpochs + e
			id := tr.record(op, 0, "service.MonitorEpoch", rd.starts[e], end)
			tr.record(op, id, "webmeasure.Run", rec.start, rec.end)
		}
	}
	extra["service.retained_mb_per_job"] = retained / float64(n)
	extra["runtime.heap_live_mb"] = live / float64(len(rounds)) // at each monitor's end
	extra["drift.alerts"] = float64(alerts) / float64(n)
	extra["input.distinct_specs"] = float64(n)
	runs := make(map[int]runRecord)
	for _, rec := range rounds[0].runs {
		runs[rec.cfg.Epoch] = rec
	}
	dir := rounds[0].dir

	// Epoch 0 is the warm-up: its replay (op 0, on a throwaway replayer)
	// only seeds the diffs.
	rp := newReplayer(ctx, tr)
	r := replayCount(o, monitorEpochs)
	m := &monitorReplay{dir: dir, out: filepath.Join(o.dir, "replay")}
	err := rp.replaying(func() error {
		if err := os.MkdirAll(m.out, 0o755); err != nil {
			return err
		}
		eng, err := drift.NewEngine(drift.DefaultRules())
		if err != nil {
			return err
		}
		m.engine = eng
		for e := 0; e <= r; e++ {
			rec, ok := runs[e]
			if !ok {
				return fmt.Errorf("no run recorded for epoch %d", e)
			}
			on := rp
			if e == 0 {
				on = newReplayer(ctx, tr)
			}
			err := on.replayEpoch(e, rec.cfg, m)
			on.endOp()
			if err != nil {
				if !errorsIsCheck(err) {
					return err
				}
				t.fail(e-1, err)
			}
		}
		return m.checkPrefix()
	})
	if err != nil {
		if !errorsIsCheck(err) {
			return nil, err
		}
		t.fail(r-1, err)
	}
	if err := tr.write(spanFile(o)); err != nil {
		return nil, err
	}
	return layerMetrics(tr, rp, r, n, extra), nil
}

// monitorReplay is the drift state a replay of consecutive epochs carries,
// as the monitor loop does.
type monitorReplay struct {
	dir    string // the monitor's state directory
	out    string // where the replay persists its own artifacts
	engine *drift.Engine
	prev   *drift.Baseline
	pin    *drift.Baseline
	deltas []*drift.Delta
	rows   []drift.CSVRow
	alerts []drift.Alert
}

// replayEpoch repeats one epoch: the run, the baseline snapshot, the
// sequential and pinned diffs, the alert rules, and the artifact rewrite.
// The baseline and delta bytes must equal the monitor's files.
func (rp *replayer) replayEpoch(e int, cfg webmeasure.Config, m *monitorReplay) error {
	root := rp.tr.begin(e, 0, "replay.Epoch")
	defer rp.tr.end(root)
	r, _, err := rp.replayRun(e, root, cfg)
	if err != nil {
		return err
	}
	snap := rp.tr.begin(e, root, "drift.Snapshot")
	b := r.DriftBaseline()
	rp.tr.end(snap)
	a := r.Analysis()
	_ = rp.tr.call(e, snap, "core.Analysis.TrackingStudy", func() error { a.TrackingStudy(); return nil })
	_ = rp.tr.call(e, snap, "core.Analysis.TreeOverview", func() error { a.TreeOverview(); return nil })
	var data []byte
	if err := rp.tr.call(e, root, "drift.Baseline.Encode", func() (err error) {
		data, err = b.Encode()
		return err
	}); err != nil {
		return err
	}
	files := map[string][]byte{fmt.Sprintf("baseline-e%04d.json", e): data}
	var seq, pinned *drift.Delta
	if m.prev != nil {
		if err := rp.tr.call(e, root, "drift.Diff", func() (err error) {
			seq, err = drift.Diff(m.prev, b)
			return err
		}); err != nil {
			return err
		}
		var alerts []drift.Alert
		_ = rp.tr.call(e, root, "drift.Engine.Evaluate", func() error {
			alerts = m.engine.Evaluate(seq)
			return nil
		})
		m.deltas = append(m.deltas, seq)
		m.rows = append(m.rows, drift.CSVRow{Delta: seq, Alerts: len(alerts)})
		m.alerts = append(m.alerts, alerts...)
	}
	if m.pin != nil {
		if err := rp.tr.call(e, root, "drift.Diff", func() (err error) {
			pinned, err = drift.Diff(m.pin, b)
			return err
		}); err != nil {
			return err
		}
	}
	if err := rp.tr.call(e, root, "drift.Persist", func() error {
		if seq != nil {
			d, err := seq.Encode()
			if err != nil {
				return err
			}
			files[fmt.Sprintf("delta-e%04d-e%04d.json", seq.FromEpoch, seq.ToEpoch)] = d
		}
		if pinned != nil {
			d, err := pinned.Encode()
			if err != nil {
				return err
			}
			files[fmt.Sprintf("pinned-e%04d.json", e)] = d
		}
		return m.persist(files)
	}); err != nil {
		return err
	}
	for name, got := range files {
		want, err := os.ReadFile(filepath.Join(m.dir, name))
		if err != nil {
			return fmt.Errorf("%w: %v", errCheck, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%w: replayed %s differs from the monitor's", errCheck, name)
		}
	}
	m.prev = b
	if e == 0 {
		m.pin = b
	}
	return nil
}

// persist writes the epoch's files and rewrites alerts.jsonl, drift.csv
// and drift-report.txt from the accumulated state, as the monitor does
// after every epoch.
func (m *monitorReplay) persist(files map[string][]byte) error {
	var alerts, csv, rep bytes.Buffer
	for _, a := range m.alerts {
		line, err := json.Marshal(a)
		if err != nil {
			return err
		}
		alerts.Write(line)
		alerts.WriteByte('\n')
	}
	if err := drift.WriteCSV(&csv, m.rows); err != nil {
		return err
	}
	for i, d := range m.deltas {
		if i > 0 {
			fmt.Fprintln(&rep)
		}
		var epochAlerts []drift.Alert
		for _, a := range m.alerts {
			if a.Epoch == d.ToEpoch {
				epochAlerts = append(epochAlerts, a)
			}
		}
		report.WriteDriftSection(&rep, d, epochAlerts)
	}
	out := map[string][]byte{"alerts.jsonl": alerts.Bytes(), "drift.csv": csv.Bytes(), "drift-report.txt": rep.Bytes()}
	for name, data := range files {
		out[name] = data
	}
	for name, data := range out {
		if err := os.WriteFile(filepath.Join(m.out, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// checkPrefix checks the replay's alert log and drift table against the
// monitor's: the replayed epochs are the monitor's first ones, so each
// replayed file must be a prefix of the monitor's.
func (m *monitorReplay) checkPrefix() error {
	for _, name := range []string{"alerts.jsonl", "drift.csv"} {
		got, err := os.ReadFile(filepath.Join(m.out, name))
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(m.dir, name))
		if err != nil {
			return fmt.Errorf("%w: %v", errCheck, err)
		}
		if !bytes.HasPrefix(want, got) {
			return fmt.Errorf("%w: replayed %s is not a prefix of the monitor's", errCheck, name)
		}
	}
	return nil
}
