// Benchmarks regenerating the paper's evaluation artefacts. One bench
// per experiment id from DESIGN.md §4; each reports the paper's metric
// as a custom unit (virtual seconds, bytes) alongside wall-clock cost.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// For the full printed series (the actual figures), run cmd/figures.
package pdagent_test

import (
	"fmt"
	"testing"

	"pdagent/internal/experiments"
)

// E1 — Figure 12: Internet connection time vs. transactions.

func BenchmarkFig12ConnectionTime(b *testing.B) {
	for _, n := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("pdagent/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := experiments.MeasurePDAgent(1, n)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(d.Seconds(), "vsec")
			}
		})
		b.Run(fmt.Sprintf("clientserver/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := experiments.MeasureClientServer(1, n)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(d.Seconds(), "vsec")
			}
		})
		b.Run(fmt.Sprintf("webbased/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := experiments.MeasureWebBased(1, n)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(d.Seconds(), "vsec")
			}
		})
	}
}

// E2 — Figure 13a: client-server completion-time variance over trials.

func BenchmarkFig13ClientServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13ClientServer(experiments.DefaultTrialSeeds, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Spread().Seconds(), "spread_vsec_n10")
	}
}

// E3 — Figure 13b: PDAgent completion-time stability over trials.

func BenchmarkFig13PDAgent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13PDAgent(experiments.DefaultTrialSeeds, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Spread().Seconds(), "spread_vsec_n10")
	}
}

// E4 — §4 claim: on-device storage footprint.

func BenchmarkFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Footprint(3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.TotalBytes), "db_bytes")
	}
}

// E5 — §2 claim: MA code size 1–8 KB, compressible.

func BenchmarkCodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CodeSizes()
		if err != nil {
			b.Fatal(err)
		}
		max := 0
		for _, r := range rows {
			if r.RawBytes > max {
				max = r.RawBytes
			}
		}
		b.ReportMetric(float64(max), "max_raw_bytes")
	}
}

// E6 — Figure 8: nearest-gateway selection by RTT probing.

func BenchmarkGatewaySelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.GatewaySelection(5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ProbeCost.Seconds(), "probe_vsec")
	}
}

// A1 — ablation: PI compression codec.

func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationCompression(1024)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Codec == "lzss" {
				b.ReportMetric(float64(r.WireBytes), "lzss_pi_bytes")
			}
		}
	}
}

// A2 — ablation: PI encryption on/off.

func BenchmarkAblationSecurity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSecurity(1024)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].WireBytes-rows[0].WireBytes), "seal_overhead_bytes")
	}
}

// A3 — ablation: MAS codec flavour.

func BenchmarkAblationFlavour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationFlavour(7)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Flavour == "voyager" {
				b.ReportMetric(float64(r.EnvelopeBytes), "voyager_envelope_bytes")
			}
		}
	}
}

// A4 — ablation: gateway selection policy.

func BenchmarkAblationSelectionPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSelectionPolicy(9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].MeanPIUpload.Seconds(), "probe_policy_vsec")
	}
}

// A5 — ablation: link sensitivity (crossover analysis).

func BenchmarkAblationLinkSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LinkSensitivity(1)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric((last.ClientServerN10 - last.PDAgentN10).Seconds(), "slow_link_gap_vsec")
	}
}
