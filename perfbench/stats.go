package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of measurements in one unit.
type samples []float64

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100): the
// smallest sample with at least p% of the samples at or below it.  It
// sorts s in place and returns NaN for an empty set.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func (s samples) median() float64 { return s.percentile(50) }

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's figures.
type report struct {
	metrics   map[string]metric
	extra     map[string]metric // informational figures, not in the result line
	attempted int64
	failed    int64
	checks    checks
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, extra: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) note(name, unit string, v float64) { r.extra[name] = metric{Value: v, Unit: unit} }

// completion is one finished write: when it finished (since the load
// started), how many events it carried and how long it took in ms.
type completion struct {
	at  time.Duration
	n   int
	lat float64
}

// loadWindows is how many equal windows a closed-loop load is cut into.
// The load's rate and latency percentiles are the medians over windows,
// so a burst of noise from a neighbour on a shared host moves one window,
// not the run's figure.
const loadWindows = 10

// windowed returns the median over loadWindows windows of total of each
// window's event rate (per second) and its p50 and p90 latency.  The last
// window also takes completions after total, up to end.
func windowed(cs []completion, total, end time.Duration) (rate, p50, p90 float64) {
	w := total / loadWindows
	lat := make([]samples, loadWindows)
	events := make([]int, loadWindows)
	for _, c := range cs {
		i := min(int(c.at/w), loadWindows-1)
		lat[i] = append(lat[i], c.lat)
		events[i] += c.n
	}
	var rates, q50, q90 samples
	for i := range lat {
		length := w
		if i == loadWindows-1 {
			length = end - w*(loadWindows-1)
		}
		rates = append(rates, float64(events[i])/length.Seconds())
		q50 = append(q50, lat[i].percentile(50))
		q90 = append(q90, lat[i].percentile(90))
	}
	return rates.median(), q50.median(), q90.median()
}
