package main

import (
	"encoding/json"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) json() (string, error) {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	return string(b), err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func mb(b int64) float64         { return float64(b) / (1 << 20) }

// serveLatencyRate is the offered rate whose reply latency serve-kv
// reports: the under-capacity operating point.
const serveLatencyRate = 60000

// endToEnd sets the metrics a user of the system sees. Host times are
// medians over the untraced repetitions; simulated values come from one
// repetition, since every repetition simulates identically.
func endToEnd(res *result, w *workload, first repStats, plain []repStats) {
	res.set("wall_s", median(seconds(plain, wallOf)), "s")
	res.set("setup_s", median(seconds(plain, setupOf)), "s")
	res.set("peak_rss_mb", median(peakRSSMBs(plain)), "MB")
	res.set("pass_frac", float64(res.attempted-res.failed)/float64(res.attempted), "frac")

	var total time.Duration
	for _, r := range first.runs {
		total += r.B.Total()
	}
	res.set("sim_ms", ms(total), "ms")

	var p99, p999, miss float64
	if len(w.serve) > 0 {
		var offered, missed int64
		for _, r := range first.runs {
			if r.Serve == nil {
				continue
			}
			offered += r.Serve.Offered
			missed += r.Serve.Shed + r.Serve.SLOViolations
			if r.Serve.Cfg.RatePerSec == serveLatencyRate {
				p99, p999 = us(r.Serve.P99), us(r.Serve.P999)
			}
		}
		if offered > 0 {
			miss = float64(missed) / float64(offered)
		}
	} else {
		// A batch job has no replies. Its latency is that of a probe
		// request arriving at a uniformly random simulated instant, which
		// waits out the GC pause in progress; the probe misses when it
		// waits at all.
		var pauses []time.Duration
		var paused time.Duration
		for _, r := range first.runs {
			for _, c := range r.GC.Cycles {
				pauses = append(pauses, c.Duration)
				paused += c.Duration
			}
		}
		p99, p999 = us(probeWait(pauses, total, 0.99)), us(probeWait(pauses, total, 0.999))
		if total > 0 {
			miss = float64(paused) / float64(total)
		}
	}
	res.set("sim_p99_us", p99, "us")
	res.set("sim_p999_us", p999, "us")
	res.set("sim_slo_miss_frac", miss, "frac")
}

// probeWait is the q-quantile of the wait of a probe arriving uniformly
// at random in [0, total) when the given pauses stop the world: the wait
// exceeds x with probability sum(max(0, d-x))/total.
func probeWait(pauses []time.Duration, total time.Duration, q float64) time.Duration {
	d := make([]float64, len(pauses))
	for i, p := range pauses {
		d[i] = float64(p)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	tail := (1 - q) * float64(total) // allowed sum(max(0, d-x))
	var sum float64
	for k, dk := range d {
		// With the k+1 longest pauses above x, sum = sum(d[:k+1]) - (k+1)x.
		sum += dk
		x := (sum - tail) / float64(k+1)
		next := 0.0
		if k+1 < len(d) {
			next = d[k+1]
		}
		if x >= next {
			if x < 0 {
				x = 0
			}
			return time.Duration(math.Round(x))
		}
	}
	return 0
}

// rssEvery is how often sampleRSS reads the runtime's memory classes.
const rssEvery = 2 * time.Millisecond

// sampleRSS tracks the memory the Go runtime holds resident (mapped and
// not returned to the system) until the returned function is called, which
// gives its peak in bytes. A repetition's peak depends on where the host
// collector happens to run, so the benchmark reports the median over
// repetitions rather than the whole process's peak.
func sampleRSS(every time.Duration) (stop func() int64) {
	done := make(chan struct{})
	peak := make(chan int64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		var max int64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := int64(s[0].Value.Uint64() - s[1].Value.Uint64()); v > max {
				max = v
			}
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 {
		close(done)
		return <-peak
	}
}

// simLayerMetrics sets the simulated per-layer counters, summed over the
// repetition's runs. They repeat exactly for a given seed.
func simLayerMetrics(res *result, rep repStats) {
	var b [4]int64
	var minorN, majorN, alloc, barriers int64
	var moved, regA, regR, cards, faults, seq, rd, wr int64
	var shed, retries, slo, pauseViol, pauses int64
	var pauseT time.Duration
	for _, r := range rep.runs {
		for i, v := range r.B.NS {
			b[i] += v
		}
		minorN += int64(r.GC.MinorCount)
		majorN += int64(r.GC.MajorCount)
		alloc += r.GC.BytesAllocated
		barriers += r.GC.BarrierExecutions
		rd += r.Dev.BytesRead
		wr += r.Dev.BytesWritten
		if t := r.TH; t != nil {
			moved += t.Moved
			regA += t.RegionsAlloc
			regR += t.RegionsReclaimed
			cards += t.CardsScanned
			faults += t.PageFaults
			seq += t.SeqFaults
		}
		if s := r.Serve; s != nil {
			shed += s.Shed
			retries += s.Retries
			slo += s.SLOViolations
			pauseViol += s.PauseViolations
			pauses += s.GCPauses
			pauseT += s.PauseTime
		}
	}
	res.set("sim.other_ms", ms(time.Duration(b[0])), "ms")
	res.set("sim.sdio_ms", ms(time.Duration(b[1])), "ms")
	res.set("sim.minor_ms", ms(time.Duration(b[2])), "ms")
	res.set("sim.major_ms", ms(time.Duration(b[3])), "ms")
	res.set("gc.minor_count", float64(minorN), "count")
	res.set("gc.major_count", float64(majorN), "count")
	res.set("gc.sim_alloc_mb", mb(alloc), "MB")
	res.set("gc.barriers", float64(barriers), "count")
	res.set("core.moved_mb", mb(moved), "MB")
	res.set("core.regions_alloc", float64(regA), "count")
	res.set("core.regions_reclaimed", float64(regR), "count")
	res.set("core.cards_scanned", float64(cards), "count")
	res.set("storage.read_mb", mb(rd), "MB")
	res.set("storage.write_mb", mb(wr), "MB")
	res.set("storage.page_faults", float64(faults), "count")
	var seqFrac float64
	if faults > 0 {
		seqFrac = float64(seq) / float64(faults)
	}
	res.set("storage.seq_fault_frac", seqFrac, "frac")
	res.set("server.shed", float64(shed), "count")
	res.set("server.retries", float64(retries), "count")
	res.set("server.slo_viol", float64(slo), "count")
	res.set("server.pause_viol", float64(pauseViol), "count")
	res.set("server.gc_pauses", float64(pauses), "count")
	res.set("server.pause_ms", ms(pauseT), "ms")
}
