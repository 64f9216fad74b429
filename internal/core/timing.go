package core

import (
	"webmeasure/internal/stats"
)

// TimingReport reproduces Appendix C's synchronization bookkeeping: visits
// to the same page start simultaneously at the site level but drift at the
// page level; the paper reports a 46-second mean deviation (SD 111s),
// driven by pages that time out in one profile but not another.
type TimingReport struct {
	// StartDeviation summarizes, per page, the spread (max − min start
	// offset, seconds) between the profiles' visits.
	StartDeviation stats.Summary
	// Duration summarizes the simulated page-load durations (ms) across
	// all vetted visits.
	Duration stats.Summary
	// TimeoutShare is the share of visits that ran into the page timeout
	// (duration at the cap).
	TimeoutShare float64
}

// Timing computes the visit-timing report over the vetted pages.
func (a *Analysis) Timing(timeoutMS int) TimingReport {
	var deviations, durations []float64
	var timeouts, visits int
	for _, pa := range a.pages {
		minOff, maxOff := -1.0, -1.0
		for _, v := range pa.visits {
			if !v.success {
				continue
			}
			visits++
			durations = append(durations, float64(v.durationMS))
			if timeoutMS > 0 && v.durationMS >= timeoutMS {
				timeouts++
			}
			if minOff < 0 || v.startOffsetS < minOff {
				minOff = v.startOffsetS
			}
			if v.startOffsetS > maxOff {
				maxOff = v.startOffsetS
			}
		}
		if maxOff >= 0 {
			deviations = append(deviations, maxOff-minOff)
		}
	}
	rep := TimingReport{
		StartDeviation: stats.Summarize(deviations),
		Duration:       stats.Summarize(durations),
	}
	if visits > 0 {
		rep.TimeoutShare = float64(timeouts) / float64(visits)
	}
	return rep
}
