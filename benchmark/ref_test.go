package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// A machine that slows down for part of a run slows the journeys and the
// reference transactions alike; held against the reference slice by
// slice, the reported metrics must not move, while the values as
// measured do.
func TestSlowSlicesCancelAgainstTheReference(t *testing.T) {
	const (
		perSlice   = 20
		journeyMs  = 4.0
		dispatchMs = 2.0
		cpuMs      = 5.0 // daemons' CPU per journey at full speed
		refMs      = 2.0 // reference latency at full speed
		refCPUNs   = 1e6 // reference CPU per transaction at full speed
	)
	slowdown := [slices]float64{1, 2, 3, 3, 2, 1}
	lr := &loadRun{wl: findWorkload("echo_plain"), seconds: slices, warm: time.Second}
	lr.refSamples = []refSample{{due: 0}} // warm-up: the CPU clock's starting point
	ticks, clock := 0.0, int64(0)
	lr.sliceTicks = [][]float64{{ticks}}
	for i, f := range slowdown {
		for j := 0; j < perSlice; j++ {
			due := lr.warm + time.Duration(i)*time.Second + time.Duration(j)*time.Second/perSlice
			lr.measured = append(lr.measured, journeyRec{due: due, journeyMs: journeyMs * f, dispatchMs: dispatchMs * f})
			clock += int64(refCPUNs * f)
			lr.refSamples = append(lr.refSamples, refSample{due: due, ms: refMs * f, cpuNs: clock})
		}
		ticks += perSlice * cpuMs * f * clockTick / 1000
		lr.sliceTicks = append(lr.sliceTicks, []float64{ticks})
	}

	res := newResult(lr)
	lr.endToEndMetrics(res, []float64{0.2})
	for name, want := range map[string]float64{
		"journey_ms_p50":     journeyMs * refNominalMs / refMs,
		"dispatch_ms_p50":    dispatchMs * refNominalMs / refMs,
		"cpu_ms_per_journey": cpuMs * refNominalCPUMs / (refCPUNs / 1e6),
		"goodput_per_s":      perSlice, // 3x slower and still inside the limit, because the reference is 3x slower too
	} {
		if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v whatever the machine's pace", name, got, want)
		}
		for i, v := range res.perSlice[name] {
			if math.Abs(v-want) > 1e-9 {
				t.Errorf("%s in slice %d (machine %gx slower) = %v, want %v", name, i, slowdown[i], v, want)
			}
		}
	}
	if got := res.perSlice["raw.journey_ms_p50"]; len(got) != slices || got[0] != journeyMs || got[2] != 3*journeyMs {
		t.Errorf("journey_ms_p50 as measured = %v, want it to follow the machine: %v x %v", got, slowdown, journeyMs)
	}
	// Set-ups are held against the run's median reference CPU reading,
	// 2 ms here.
	if got, want := res.Metrics["setup_s"].Value, 0.2*refNominalCPUMs/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("setup_s = %v, want %v", got, want)
	}
	if got := res.perSlice["ref.cpu_ms"]; len(got) != slices || math.Abs(got[2]-3) > 1e-9 {
		t.Errorf("ref.cpu_ms = %v, want 3 ms in the slowest slice", got)
	}
}

// The reference server answers its fixed transaction correctly, reports
// a CPU clock that only moves forward, and dies with stop.
func TestReferenceServerAnswersAndReportsItsClock(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a process")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	r, err := startRef(ctx, testPaths(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.stop()
	first, err := r.transact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.transact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first <= 0 || second <= first {
		t.Errorf("CPU clock read %d then %d ns; it must advance with every transaction", first, second)
	}
	r.want = append(r.want, ' ')
	if _, err := r.transact(ctx); err == nil {
		t.Error("an answer that differs from the expected document must be an error")
	}
	pr := r.proc
	r.stop()
	if pr.alive() {
		t.Error("reference server still running after stop")
	}
}
