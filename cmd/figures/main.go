// Command figures regenerates every quantitative artefact of the
// paper's evaluation and prints it as aligned tables (or CSV): Figure
// 12, both Figure 13 panels, the footprint and code-size claims, the
// Figure 8 gateway-selection experiment, and the four ablations from
// DESIGN.md.
//
// Usage:
//
//	figures            # all experiments, ASCII tables
//	figures -csv       # CSV output
//	figures -only fig12,fig13,claims,select,ablations,faults,push
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pdagent/internal/experiments"
)

var experimentKeys = []string{"fig12", "fig13", "claims", "select", "ablations", "faults", "push"}

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(experimentKeys, ","))
	seed := flag.Int64("seed", 1, "base seed for the simulated network")
	maxN := flag.Int("n", experiments.DefaultMaxN, "maximum number of transactions")
	flag.Parse()

	want := map[string]bool{}
	for _, k := range experimentKeys {
		want[k] = *only == ""
	}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			// "selection" is an accepted alias for the E6/A4
			// gateway-selection experiment.
			if k == "selection" {
				k = "select"
			}
			if _, known := want[k]; !known {
				fmt.Fprintf(os.Stderr, "figures: unknown experiment %q (want %s)\n", k, strings.Join(experimentKeys, ","))
				os.Exit(2)
			}
			want[k] = true
		}
	}

	emit := func(t *experiments.Table) {
		if *csv {
			fmt.Println("# " + t.Title)
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.ASCII())
		}
	}

	if want["fig12"] {
		rows, err := experiments.Fig12(*seed, *maxN)
		if err != nil {
			log.Fatalf("figures: fig12: %v", err)
		}
		emit(experiments.Fig12Table(rows))
	}
	if want["fig13"] {
		cs, err := experiments.Fig13ClientServer(experiments.DefaultTrialSeeds, *maxN)
		if err != nil {
			log.Fatalf("figures: fig13 client-server: %v", err)
		}
		emit(experiments.Fig13Table(
			"Figure 13a — Client-Server completion time per trial (virtual seconds)", cs))
		pda, err := experiments.Fig13PDAgent(experiments.DefaultTrialSeeds, *maxN)
		if err != nil {
			log.Fatalf("figures: fig13 pdagent: %v", err)
		}
		emit(experiments.Fig13Table(
			"Figure 13b — PDAgent completion time per trial (virtual seconds)", pda))
	}
	if want["claims"] {
		sizes, err := experiments.CodeSizes()
		if err != nil {
			log.Fatalf("figures: code sizes: %v", err)
		}
		emit(experiments.CodeSizeTable(sizes))
		fp, err := experiments.Footprint(*seed)
		if err != nil {
			log.Fatalf("figures: footprint: %v", err)
		}
		emit(experiments.FootprintTable(fp))
	}
	if want["select"] {
		sel, err := experiments.GatewaySelection(*seed)
		if err != nil {
			log.Fatalf("figures: gateway selection: %v", err)
		}
		emit(experiments.SelectTable(sel))
		stale, err := experiments.GatewaySelectionWithStaleList(*seed)
		if err != nil {
			log.Fatalf("figures: stale-list selection: %v", err)
		}
		fmt.Printf("stale-list scenario: refreshed=%v, settled on %s (%.2fs RTT)\n\n",
			stale.Refreshed, stale.Chosen, stale.ChosenRTT.Seconds())
	}
	if want["ablations"] {
		comp, err := experiments.AblationCompression(2048)
		if err != nil {
			log.Fatalf("figures: ablation A1: %v", err)
		}
		emit(experiments.CompressionTable(comp))
		sec, err := experiments.AblationSecurity(2048)
		if err != nil {
			log.Fatalf("figures: ablation A2: %v", err)
		}
		emit(experiments.SecurityTable(sec))
		flav, err := experiments.AblationFlavour(*seed)
		if err != nil {
			log.Fatalf("figures: ablation A3: %v", err)
		}
		emit(experiments.FlavourTable(flav))
		pol, err := experiments.AblationSelectionPolicy(*seed)
		if err != nil {
			log.Fatalf("figures: ablation A4: %v", err)
		}
		emit(experiments.PolicyTable(pol))
		sens, err := experiments.LinkSensitivity(*seed)
		if err != nil {
			log.Fatalf("figures: ablation A5: %v", err)
		}
		emit(experiments.SensitivityTable(sens))
	}
	if want["faults"] {
		rows, err := experiments.E7(*seed, *maxN)
		if err != nil {
			log.Fatalf("figures: E7: %v", err)
		}
		emit(experiments.E7Table(rows))
	}
	if want["push"] {
		rows, err := experiments.E8(*seed, experiments.DefaultE8Outages)
		if err != nil {
			log.Fatalf("figures: E8: %v", err)
		}
		emit(experiments.E8Table(rows))
	}
}
