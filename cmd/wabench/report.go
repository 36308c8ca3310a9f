package main

import (
	"writeavoid/internal/core"
	"writeavoid/internal/costmodel"
	"writeavoid/internal/experiments"
	"writeavoid/internal/extsort"
	"writeavoid/internal/fft"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
)

// PhaseReport is one counted phase of the -json output: the full machine
// snapshot plus the alpha-beta time a streaming machine.CostRecorder, priced
// with the hardware's costmodel.HW coefficients, charged to the phase's
// exact event stream.
type PhaseReport struct {
	Name             string           `json:"name"`
	PredictedSeconds float64          `json:"predictedSeconds"`
	Machine          machine.Snapshot `json:"machine"`
}

// Report is the top-level -json document.
type Report struct {
	HW     string        `json:"hw"`
	Quick  bool          `json:"quick"`
	Phases []PhaseReport `json:"phases"`
}

// buildJSONReport runs a small suite of counted phases, each on a fresh
// hierarchy with a machine.CostRecorder attached, and snapshots the counters.
// Phase sizes are fixed (they already finish in milliseconds), so quick only
// tags the document. Each phase passes its hierarchy through the session's
// observability hooks, so any installed stream recorders, profiler, monitor
// and server see the suite the same way they see the text sections — phase
// boundaries become marks, and the JSONL deltas line up with the report's
// phases name for name.
func buildJSONReport(sess *experiments.Session, quick bool, hwName string, hw costmodel.HW) Report {
	rep := Report{HW: hwName, Quick: quick}

	phase := func(name string, h *machine.Hierarchy, run func()) {
		rec := machine.NewCostRecorder(hw.CostModel())
		h.Attach(rec)
		sess.Mark(name)
		sess.Observe(h)
		run()
		rep.Phases = append(rep.Phases, PhaseReport{
			Name:             name,
			PredictedSeconds: rec.Time(),
			Machine:          h.Snapshot(),
		})
	}

	matmul := func(name string, order core.Order) {
		p := core.TwoLevelPlan(3*16*16, 16, order)
		phase(name, p.H, func() {
			c := matrix.New(64, 64)
			if err := core.MatMul(p, c, matrix.Random(64, 64, 1), matrix.Random(64, 64, 2)); err != nil {
				panic(err)
			}
		})
	}
	matmul("matmul-wa", core.OrderWA)
	matmul("matmul-nonwa", core.OrderNonWA)

	{
		h := machine.TwoLevel(64)
		phase("fft-external", h, func() {
			x := make([]complex128, 1024)
			for i := range x {
				x[i] = complex(float64(i%7)-3, float64(i%5)-2)
			}
			fft.External(h, 64, x)
		})
	}
	{
		h := machine.TwoLevel(256)
		phase("extsort", h, func() {
			data := make([]float64, 1<<12)
			for i := range data {
				data[i] = float64((i * 2654435761) % 99991)
			}
			if _, err := extsort.Sort(h, 256, data); err != nil {
				panic(err)
			}
		})
	}
	return rep
}
