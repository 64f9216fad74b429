package service

// Monitor mode: the recurring-measurement loop that turns the job server
// into a longitudinal monitoring daemon. Each tick runs one epoch of the
// configured experiment (the deterministic seeded universe advanced by
// webgen's epoch churn), snapshots the analysis into a drift baseline,
// persists it to the state directory, diffs it against the previous
// epoch and against a pinned reference baseline, feeds the sequential
// delta through the alert rule engine, and rewrites the derived
// artifacts (alerts.jsonl, drift.csv, drift-report.txt).
//
// Everything an epoch emits is a pure function of (spec, epoch) plus the
// baselines before it, so a monitor run is byte-reproducible: two
// servers given the same MonitorConfig write identical state
// directories, and a restarted server resumes from the persisted
// baselines without re-crawling finished epochs.

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
)

// MonitorConfig parameterizes monitor mode.
type MonitorConfig struct {
	// Spec is the experiment every epoch reruns; its Epoch field is
	// overridden per tick. It is validated against the server limits like
	// a submitted job.
	Spec JobSpec
	// Epochs is how many epochs to run (required, > 0).
	Epochs int
	// StartEpoch is the first epoch (default 0, the base snapshot).
	StartEpoch int
	// Interval is the pause between epochs; 0 runs them back to back.
	// The schedule only affects timing, never artifact bytes.
	Interval time.Duration
	// StateDir receives baselines, deltas, alerts.jsonl, drift.csv, and
	// drift-report.txt (required; created if missing).
	StateDir string
	// Rules is the alert rule set (nil = drift.DefaultRules()).
	Rules []drift.Rule
	// PinEpoch selects the pinned reference baseline every epoch is
	// additionally diffed against; negative pins StartEpoch.
	PinEpoch int
}

// withDefaults normalizes the optional fields.
func (mc MonitorConfig) withDefaults() MonitorConfig {
	if mc.StartEpoch < 0 {
		mc.StartEpoch = 0
	}
	if mc.PinEpoch < 0 {
		mc.PinEpoch = mc.StartEpoch
	}
	if mc.Rules == nil {
		mc.Rules = drift.DefaultRules()
	}
	return mc
}

// MonitorStatus is the monitor's point-in-time view, served by
// /debug/drift and embedded in /healthz.
type MonitorStatus struct {
	Enabled       bool   `json:"enabled"`
	StateDir      string `json:"state_dir,omitempty"`
	EpochsPlanned int    `json:"epochs_planned,omitempty"`
	EpochsDone    int    `json:"epochs_done"`
	// CurrentEpoch is the epoch measuring right now (-1 when idle).
	CurrentEpoch int `json:"current_epoch"`
	// LastEpoch is the newest completed epoch (-1 before the first).
	LastEpoch   int    `json:"last_epoch"`
	PinEpoch    int    `json:"pin_epoch,omitempty"`
	AlertsTotal int    `json:"alerts_total"`
	Firing      int    `json:"firing"`
	Done        bool   `json:"done"`
	LastError   string `json:"last_error,omitempty"`
}

// monitorState is the server's monitor-mode bookkeeping.
type monitorState struct {
	mu     sync.Mutex
	cfg    MonitorConfig
	engine *drift.Engine
	// rulesErr records an invalid Config.Monitor.Rules set; the loop
	// aborts on it before the first epoch.
	rulesErr error

	// prev is the last folded epoch's baseline and pin the pinned
	// epoch's, once reached; the state directory holds the others.
	prev, pin  *drift.Baseline
	deltas     []*drift.Delta // sequential epoch-over-epoch deltas
	rows       []drift.CSVRow
	alerts     []drift.Alert
	lastPinned *drift.Delta // newest delta vs the pinned baseline

	epochsDone   int
	currentEpoch int // -1 when idle
	lastEpoch    int
	done         bool
	lastError    string
}

// status snapshots the monitor state.
func (m *monitorState) status() MonitorStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MonitorStatus{
		Enabled:       true,
		StateDir:      m.cfg.StateDir,
		EpochsPlanned: m.cfg.Epochs,
		EpochsDone:    m.epochsDone,
		CurrentEpoch:  m.currentEpoch,
		LastEpoch:     m.lastEpoch,
		PinEpoch:      m.cfg.PinEpoch,
		AlertsTotal:   len(m.alerts),
		Firing:        m.engine.Firing(),
		Done:          m.done,
		LastError:     m.lastError,
	}
}

// MonitorStatus returns the monitor's status; ok is false when monitor
// mode is off.
func (s *Server) MonitorStatus() (MonitorStatus, bool) {
	if s.monitor == nil {
		return MonitorStatus{}, false
	}
	return s.monitor.status(), true
}

// MonitorDone exposes the monitor's completion channel (closed after the
// last epoch, or on a fatal error); nil when monitor mode is off.
func (s *Server) MonitorDone() <-chan struct{} { return s.monitorDone }

// baselineFile names epoch e's persisted baseline.
func baselineFile(dir string, e int) string {
	return filepath.Join(dir, fmt.Sprintf("baseline-e%04d.json", e))
}

// deltaFile names the persisted sequential delta from→to.
func deltaFile(dir string, from, to int) string {
	return filepath.Join(dir, fmt.Sprintf("delta-e%04d-e%04d.json", from, to))
}

// pinnedFile names the persisted pinned delta for epoch e.
func pinnedFile(dir string, e int) string {
	return filepath.Join(dir, fmt.Sprintf("pinned-e%04d.json", e))
}

// monitorLoop is the recurring-measurement goroutine. It stops early
// when Shutdown closes stopping or cancels the base context.
func (s *Server) monitorLoop() {
	defer s.wg.Done()
	defer close(s.monitorDone)
	m := s.monitor

	fail := func(err error) {
		s.log.Error("monitor failed", "error", err.Error())
		m.mu.Lock()
		m.lastError = err.Error()
		m.currentEpoch = -1
		m.done = true
		m.mu.Unlock()
	}

	if m.rulesErr != nil {
		fail(fmt.Errorf("monitor rules: %w", m.rulesErr))
		return
	}
	spec, err := m.cfg.Spec.normalize(s.cfg.Limits)
	if err != nil {
		fail(fmt.Errorf("monitor spec: %w", err))
		return
	}
	if err := os.MkdirAll(m.cfg.StateDir, 0o755); err != nil {
		fail(err)
		return
	}

	epochsTotal := s.reg.Counter("monitor.epochs.total")
	currentEpoch := s.reg.Gauge("monitor.current_epoch")
	alertsTotal := s.reg.Counter("drift.alerts.total")
	firing := s.reg.Gauge("drift.alerts.firing")

	for i := 0; i < m.cfg.Epochs; i++ {
		epoch := m.cfg.StartEpoch + i
		select {
		case <-s.stopping:
			return
		case <-s.baseCtx.Done():
			return
		default:
		}
		if i > 0 && m.cfg.Interval > 0 {
			select {
			case <-s.stopping:
				return
			case <-s.baseCtx.Done():
				return
			case <-time.After(m.cfg.Interval):
			}
		}

		// Resume: a baseline persisted by an earlier run of the same
		// state directory replaces the crawl; deltas and alerts are
		// replayed from it deterministically below.
		b, resumed, err := loadBaseline(m.cfg.StateDir, epoch)
		if err != nil {
			fail(fmt.Errorf("epoch %d: %w", epoch, err))
			return
		}
		if !resumed {
			m.mu.Lock()
			m.currentEpoch = epoch
			m.mu.Unlock()
			currentEpoch.Set(int64(epoch))
			s.log.Info("monitor epoch started", "epoch", epoch)
			b, err = s.runEpoch(spec, epoch)
			if err != nil {
				if s.baseCtx.Err() != nil {
					return // shutdown canceled the run
				}
				fail(fmt.Errorf("epoch %d: %w", epoch, err))
				return
			}
			data, err := b.Encode()
			if err != nil {
				fail(err)
				return
			}
			if err := os.WriteFile(baselineFile(m.cfg.StateDir, epoch), data, 0o644); err != nil {
				fail(err)
				return
			}
		} else {
			s.log.Info("monitor epoch resumed from baseline", "epoch", epoch)
		}

		if err := s.monitorAdvance(m, b, epoch); err != nil {
			fail(err)
			return
		}
		epochsTotal.Inc()
		alertsTotal.Add(int64(m.lastEpochAlerts(epoch)))
		firing.Set(int64(m.engine.Firing()))
		s.log.Info("monitor epoch done", "epoch", epoch, "alerts", m.lastEpochAlerts(epoch))
	}
	m.mu.Lock()
	m.currentEpoch = -1
	m.done = true
	m.mu.Unlock()
	currentEpoch.Set(-1)
	s.log.Info("monitor finished", "epochs", m.cfg.Epochs)
}

// runEpoch runs one epoch's measurement outside the job queue (the
// monitor must not compete with submitted jobs for queue slots, and its
// results are persisted, not cached).
func (s *Server) runEpoch(spec JobSpec, epoch int) (*drift.Baseline, error) {
	runner := s.cfg.Runner
	if runner == nil {
		runner = webmeasure.Run
	}
	spec.Epoch = epoch
	cfg := spec.config(s.reg)
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	r, err := runner(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return r.DriftBaseline(), nil
}

// monitorAdvance folds one completed epoch's baseline into the monitor
// state — sequential delta, pinned delta, alert evaluation, drift
// metrics — and rewrites the derived artifacts.
func (s *Server) monitorAdvance(m *monitorState, b *drift.Baseline, epoch int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.prev
	m.prev = b
	if epoch == m.cfg.PinEpoch {
		m.pin = b
	}
	m.lastEpoch = epoch
	m.epochsDone++
	m.currentEpoch = -1
	dir := m.cfg.StateDir

	if prev != nil {
		d, err := drift.Diff(prev, b)
		if err != nil {
			return err
		}
		alerts := m.engine.Evaluate(d)
		m.deltas = append(m.deltas, d)
		m.rows = append(m.rows, drift.CSVRow{Delta: d, Alerts: len(alerts)})
		m.alerts = append(m.alerts, alerts...)
		data, err := d.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(deltaFile(dir, d.FromEpoch, d.ToEpoch), data, 0o644); err != nil {
			return err
		}
		s.publishDriftMetrics(d)
	}
	if m.pin != nil && epoch != m.cfg.PinEpoch {
		d, err := drift.Diff(m.pin, b)
		if err != nil {
			return err
		}
		m.lastPinned = d
		data, err := d.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(pinnedFile(dir, epoch), data, 0o644); err != nil {
			return err
		}
	}
	return m.rewriteArtifactsLocked()
}

// publishDriftMetrics exports the latest sequential delta as gauges.
func (s *Server) publishDriftMetrics(d *drift.Delta) {
	s.reg.FloatGauge("drift.tracking_share").Set(d.TrackingShareTo)
	s.reg.FloatGauge("drift.tracking_share_drift").Set(d.TrackingShareDrift)
	s.reg.FloatGauge("drift.third_party_jaccard").Set(d.ThirdPartyJaccard)
	s.reg.FloatGauge("drift.tree_similarity").Set(d.TreeSimilarity)
	s.reg.Gauge("drift.new_third_parties").Set(int64(len(d.NewThirdParties)))
	s.reg.Gauge("drift.vanished_third_parties").Set(int64(len(d.VanishedThirdParties)))
}

// lastEpochAlerts counts the alerts fired at one epoch.
func (m *monitorState) lastEpochAlerts(epoch int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, a := range m.alerts {
		if a.Epoch == epoch {
			n++
		}
	}
	return n
}

// rewriteArtifactsLocked rewrites alerts.jsonl, drift.csv, and
// drift-report.txt from the accumulated state. Full rewrites keep the
// files correct under resume (no duplicate appends) and byte-identical
// to a fresh run. Caller holds m.mu.
func (m *monitorState) rewriteArtifactsLocked() error {
	dir := m.cfg.StateDir

	var alertsBuf bytes.Buffer
	for _, a := range m.alerts {
		line, err := json.Marshal(a)
		if err != nil {
			return err
		}
		alertsBuf.Write(line)
		alertsBuf.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "alerts.jsonl"), alertsBuf.Bytes(), 0o644); err != nil {
		return err
	}

	var csvBuf bytes.Buffer
	if err := drift.WriteCSV(&csvBuf, m.rows); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "drift.csv"), csvBuf.Bytes(), 0o644); err != nil {
		return err
	}

	var repBuf bytes.Buffer
	for i, d := range m.deltas {
		if i > 0 {
			fmt.Fprintln(&repBuf)
		}
		var epochAlerts []drift.Alert
		for _, a := range m.alerts {
			if a.Epoch == d.ToEpoch {
				epochAlerts = append(epochAlerts, a)
			}
		}
		report.WriteDriftSection(&repBuf, d, epochAlerts)
	}
	return os.WriteFile(filepath.Join(dir, "drift-report.txt"), repBuf.Bytes(), 0o644)
}

// loadBaseline loads a persisted epoch baseline if present.
func loadBaseline(dir string, epoch int) (*drift.Baseline, bool, error) {
	data, err := os.ReadFile(baselineFile(dir, epoch))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	b, err := drift.DecodeBaseline(data)
	if err != nil {
		return nil, false, err
	}
	if b.Meta.Epoch != epoch {
		return nil, false, fmt.Errorf("drift: %s holds epoch %d", baselineFile(dir, epoch), b.Meta.Epoch)
	}
	return b, true, nil
}
