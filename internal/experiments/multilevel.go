package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"writeavoid/internal/cache"
	"writeavoid/internal/core"
)

// MultiLevelRow reports per-level write-backs of one instruction order
// through a simulated three-level cache hierarchy.
type MultiLevelRow struct {
	Order      string
	L1VictimsM int64
	L2VictimsM int64
	L3VictimsM int64 // memory write-backs
	WriteLB    int64 // output lines
}

// MultiLevel runs the paper's stated future-work question — "a study of
// instruction orders necessary for LRU to provide write-avoiding properties
// at multiple levels" — empirically: the Figure 4a (multi-level WA) and
// Figure 4b (two-level WA) instruction orders replayed through a full
// three-level LRU cache hierarchy, reporting dirty victims at every level.
//
// The shapes mirror Figure 5: the Fig. 4b order minimizes write-backs from
// the LAST level (memory writes) but pays more L1/L2-level write-backs,
// while the Fig. 4a order is the better citizen at the upper levels.
func (s *Session) MultiLevel(quick bool) []MultiLevelRow {
	s.mark("multilevel")
	n := 96
	mid := 192
	if quick {
		mid = 96
	}
	// Three-level hierarchy: L1 2 KiB, L2 8 KiB, L3 32 KiB (8 doubles per
	// 64 B line). Blocks chosen 5-fit per level: b1=5 -> use 4, b2=10 ->
	// 8, b3=20 -> 16 (powers keep the ragged edges small).
	mk := func() *cache.Hierarchy {
		return cache.NewHierarchy(
			cache.Config{SizeBytes: 2 * 1024, LineBytes: 64, Assoc: 4, Policy: cache.PolicyLRU},
			cache.Config{SizeBytes: 8 * 1024, LineBytes: 64, Assoc: 8, Policy: cache.PolicyLRU},
			cache.Config{SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 16, Policy: cache.PolicyLRU},
		)
	}
	var rows []MultiLevelRow
	for _, tc := range []struct {
		name  string
		inner bool
	}{
		{"multi-level WA (Fig 4a)", true},
		{"two-level WA (Fig 4b)", false},
	} {
		h := mk()
		core.NewMatMulTrace(n, mid, n, 64,
			core.TraceLevel{Block: 16, ContractionInner: true},
			core.TraceLevel{Block: 8, ContractionInner: tc.inner},
			core.TraceLevel{Block: 4, ContractionInner: tc.inner}).
			Run(h)
		h.FlushDirty()
		rows = append(rows, MultiLevelRow{
			Order:      tc.name,
			L1VictimsM: h.Level(0).Stats().VictimsM,
			L2VictimsM: h.Level(1).Stats().VictimsM,
			L3VictimsM: h.Level(2).Stats().VictimsM,
			WriteLB:    int64(n * n * 8 / 64),
		})
	}
	return rows
}

// FormatMultiLevel renders the multi-level rows.
func FormatMultiLevel(rows []MultiLevelRow) string {
	var b strings.Builder
	b.WriteString("== Multi-level LRU study (paper future work): per-level dirty victims\n")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "order\tL1 victims.M\tL2 victims.M\tmemory writes\toutput lines\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t\n",
			r.Order, r.L1VictimsM, r.L2VictimsM, r.L3VictimsM, r.WriteLB)
	}
	tw.Flush()
	return b.String()
}
