package metrics

import (
	"fmt"
	"strings"
	"time"
)

// ServeRow is one configuration of the serve figure: a runtime kind at
// one offered arrival rate, with its SLO report.
type ServeRow struct {
	Name    string
	Rate    float64 // offered arrival rate, req/s
	Served  int64
	Shed    int64
	Retries int64
	P50     time.Duration
	P99     time.Duration
	P999    time.Duration
	SLOViol int64 // replies served past the deadline
	PauseV  int64 // SLO violations overlapping a GC pause
	RPS     float64
	Status  string // as Row.Status
	Note    string
}

// FormatServeTable renders serve rows as an aligned table.
func FormatServeTable(title string, rows []ServeRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	fmt.Fprintf(&sb, "%-24s %8s %8s %6s %7s %9s %9s %9s %8s %8s %s\n",
		"config", "rate", "served", "shed", "retries", "p50", "p99", "p999", "sloViol", "rps", "")
	for _, r := range rows {
		if r.Status != "" {
			fmt.Fprintf(&sb, "%-24s %8.0f %8s %s\n", r.Name, r.Rate, r.Status, r.Note)
			continue
		}
		fmt.Fprintf(&sb, "%-24s %8.0f %8d %6d %7d %9s %9s %9s %8d %8.0f %s\n",
			r.Name, r.Rate, r.Served, r.Shed, r.Retries,
			fmtDur(r.P50), fmtDur(r.P99), fmtDur(r.P999), r.SLOViol, r.RPS, r.Note)
	}
	return sb.String()
}

// CSVServe renders serve rows as CSV with columns name,rate,served,shed,
// retries,p50_ns,p99_ns,p999_ns,slo_viol,pause_viol,rps,oom,fault.
func CSVServe(rows []ServeRow) string {
	var sb strings.Builder
	sb.WriteString("name,rate,served,shed,retries,p50_ns,p99_ns,p999_ns,slo_viol,pause_viol,rps,oom,fault\n")
	for _, r := range rows {
		oom, flt := statusFlags(r.Status)
		fmt.Fprintf(&sb, "%s,%g,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%d,%d\n",
			r.Name, r.Rate, r.Served, r.Shed, r.Retries,
			int64(r.P50), int64(r.P99), int64(r.P999), r.SLOViol, r.PauseV, r.RPS, oom, flt)
	}
	return sb.String()
}
