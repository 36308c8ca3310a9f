package main

import (
	"runtime"
	"time"
)

// The runner is a small guest on a shared host. Its neighbours slow it by
// up to 2x, in stretches from under a second to longer than a whole run, so
// even the fastest pass of one commit spread by a third across runs. A pass
// is therefore timed in units (one trace item, or one suite run of the
// counted workload), and every unit and every setup is followed by a host
// reference: the time of a fixed kernel that runs no code of the program,
// made of map churn, pointer chasing and short-lived allocations, the mix
// the workloads spend their time in. Each unit is reported at the
// reference's nominal speed,
//
//	reported = measured × refNominal / the reference taken right after it
//
// and a pass is the sum of its units. A change to the program moves the
// measured time and not the reference; a slow stretch of the host that
// covers a unit and its reference moves both.

// refNominal is the reference kernel's time on a quiet 2-core runner (see
// NOTES.md). It only sets the scale of the normalized seconds.
const refNominal = 0.05

// unit is one timed unit of a pass, or one setup, with the host reference
// taken right after it.
type unit struct{ secs, ref float64 }

// atNominal is the units' total seconds at the reference's nominal speed.
func atNominal(us ...unit) float64 {
	var s float64
	for _, u := range us {
		s += u.secs * refNominal / u.ref
	}
	return s
}

// refSink keeps the compiler from discarding the reference kernel.
var refSink int

// refKernel is a fixed amount of work independent of the program.
func refKernel() int {
	const n = 1 << 16
	next := make([]int32, n)
	for i := range next {
		next[i] = int32((i*40503 + 7) & (n - 1))
	}
	m := make(map[uint64]int32, 4096)
	var live [][]byte
	s, p := 0, int32(0)
	for i := 0; i < 700000; i++ {
		k := uint64(i*2654435761) & (1<<13 - 1)
		if v, ok := m[k]; ok {
			s += int(v)
		} else {
			m[k] = int32(i)
			delete(m, (k+1<<12)&(1<<13-1))
		}
		p = next[p]
		s += int(p)
		if i&7 == 0 {
			live = append(live, make([]byte, 48+i&63))
			if len(live) == 512 {
				live = live[:0]
			}
		}
	}
	return s + len(live)
}

// hostRef times the reference kernel once, from a collected heap.
func hostRef() float64 {
	runtime.GC()
	t0 := time.Now()
	refSink += refKernel()
	return time.Since(t0).Seconds()
}
