package main

import (
	"fmt"
	"strings"
)

// endToEndMetrics is what an untraced run reports, in BENCHMARK.json order.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"accesses_per_s", "1/s"},
	{"events_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"writeback_ratio", "ratio"},
}

// perLayerMetrics lists every metric a traced run reports, in the order
// BENCHMARK.json lists them. A layer a workload does not exercise reads 0.
func perLayerMetrics() []string {
	out := []string{
		"core.emit_ns_per_access.co", "core.emit_ns_per_access.wa2", "core.emit_ns_per_access.waml",
		"machine.touch_ns_per_access",
		"cache.falru_ns_per_access", "cache.clock3_ns_per_access", "cache.hier3_ns_per_access",
	}
	var items []string
	for _, s := range append(figreplaySpecs(), setassocSpecs()...) {
		items = append(items, s.Name)
	}
	for _, field := range []string{"accesses", "hits", "victims_m", "victims_e", "fills_e"} {
		for _, it := range items {
			out = append(out, "cache."+field+"."+it)
		}
	}
	for lvl := 1; lvl <= 3; lvl++ {
		out = append(out, fmt.Sprintf("cache.hier3_l%d_victims_m", lvl))
	}
	out = append(out, "trace.mru_reuse_frac")
	out = append(out, rungMetric[:]...)
	for _, sec := range []string{"sec3", "sec5", "table1", "krylov", "smp", "omega"} {
		out = append(out, "experiments."+sec+"_s")
	}
	return append(out,
		"monitor.events", "monitor.phases", "monitor.checks", "monitor.violations", "flight.dropped",
		"dist.net_words", "pmm.nvm_writes", "plu.nvm_writes", "krylov.write_ratio",
		"go.alloc_bytes_per_access", "go.gc_cycles",
		"trace.decomp_ratio", "trace.overhead_s", "failed_frac",
	)
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.Contains(name, "ns_per_"):
		return "ns"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case name == "go.alloc_bytes_per_access":
		return "B"
	}
	return "count"
}
