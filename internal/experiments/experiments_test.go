package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestFig12Shape verifies the paper's Figure 12 claims: baselines grow
// roughly linearly with the number of transactions while PDAgent's
// connection time "is not affected by any increase in the number of
// transactions", staying lowest throughout.
func TestFig12Shape(t *testing.T) {
	rows, err := Fig12(1, 10)
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]

	// PDAgent wins at every point.
	for _, r := range rows {
		if r.PDAgent >= r.ClientServer {
			t.Errorf("n=%d: pdagent %v >= client-server %v", r.N, r.PDAgent, r.ClientServer)
		}
		if r.PDAgent >= r.WebBased {
			t.Errorf("n=%d: pdagent %v >= web %v", r.N, r.PDAgent, r.WebBased)
		}
	}
	// Baselines grow substantially; PDAgent stays within a narrow band.
	if last.ClientServer < 4*first.ClientServer {
		t.Errorf("client-server growth too flat: %v -> %v", first.ClientServer, last.ClientServer)
	}
	if last.WebBased < 4*first.WebBased {
		t.Errorf("web growth too flat: %v -> %v", first.WebBased, last.WebBased)
	}
	if last.PDAgent > 2*first.PDAgent {
		t.Errorf("pdagent not flat: %v -> %v", first.PDAgent, last.PDAgent)
	}
	// By n=10 the gap is at least 5x (paper: ~15x on their testbed).
	if last.ClientServer < 5*last.PDAgent {
		t.Errorf("n=10 gap too small: cs %v vs pda %v", last.ClientServer, last.PDAgent)
	}
	// Web-based costs more than client-server (page overhead).
	if last.WebBased <= last.ClientServer {
		t.Errorf("web %v <= client-server %v at n=10", last.WebBased, last.ClientServer)
	}
}

// TestFig13Shape verifies the variance claims: client-server completion
// times spread out as n grows; PDAgent's stay in a stable narrow band.
func TestFig13Shape(t *testing.T) {
	cs, err := Fig13ClientServer(DefaultTrialSeeds, 10)
	if err != nil {
		t.Fatalf("Fig13ClientServer: %v", err)
	}
	pda, err := Fig13PDAgent(DefaultTrialSeeds, 10)
	if err != nil {
		t.Fatalf("Fig13PDAgent: %v", err)
	}
	if len(cs) != 10 || len(pda) != 10 {
		t.Fatalf("rows = %d/%d", len(cs), len(pda))
	}
	// Spread at n=10 must exceed spread at n=1 for client-server (sum
	// of per-request jitter) ...
	if cs[9].Spread() <= cs[0].Spread() {
		t.Errorf("client-server spread did not widen: %v -> %v", cs[0].Spread(), cs[9].Spread())
	}
	// ... while PDAgent's spread stays bounded by a constant (its two
	// messages draw jitter twice regardless of n).
	maxPDASpread := time.Duration(0)
	for _, r := range pda {
		if s := r.Spread(); s > maxPDASpread {
			maxPDASpread = s
		}
	}
	if maxPDASpread >= cs[9].Spread() {
		t.Errorf("pdagent max spread %v >= client-server n=10 spread %v", maxPDASpread, cs[9].Spread())
	}
	// Every PDAgent trial completes quickly (paper: under ~8 s).
	for _, r := range pda {
		for _, d := range r.Trials {
			if d > 8*time.Second {
				t.Errorf("n=%d: pdagent completion %v exceeds 8s band", r.N, d)
			}
		}
	}
}

func TestCodeSizesClaim(t *testing.T) {
	rows, err := CodeSizes()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper: MA code runs 1 KB–8 KB. Our echo app is tiny; the real
		// apps must sit inside the band.
		if r.App != "app.echo" && (r.RawBytes < 256 || r.RawBytes > 8192) {
			t.Errorf("%s: raw size %d outside sane band", r.App, r.RawBytes)
		}
		if r.LZSSBytes >= r.RawBytes {
			t.Errorf("%s: LZSS did not shrink (%d -> %d)", r.App, r.RawBytes, r.LZSSBytes)
		}
		if r.CompiledBytes == 0 {
			t.Errorf("%s: compiled size 0", r.App)
		}
	}
}

func TestFootprintClaim(t *testing.T) {
	r, err := Footprint(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalBytes == 0 || r.Records == 0 {
		t.Fatalf("report = %+v", r)
	}
	// The on-device database with all apps subscribed stays small —
	// far under the paper's 120 KB platform figure (see EXPERIMENTS.md
	// for why the numbers differ in kind).
	if r.TotalBytes > 120*1024 {
		t.Errorf("database footprint %d exceeds 120KB", r.TotalBytes)
	}
	sum := 0
	for _, b := range r.PerAppBytes {
		sum += b
	}
	if sum > r.TotalBytes {
		t.Errorf("per-app sum %d > total %d", sum, r.TotalBytes)
	}
}

func TestGatewaySelectionExperiment(t *testing.T) {
	r, err := GatewaySelection(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Chosen != "gw-0" {
		t.Errorf("chose %q, want the nearest gw-0", r.Chosen)
	}
	if len(r.Probes) != 5 {
		t.Errorf("probes = %d", len(r.Probes))
	}
	// Probe cost covers all five pings.
	if r.ProbeCost <= r.ChosenRTT {
		t.Errorf("probe cost %v <= single RTT %v", r.ProbeCost, r.ChosenRTT)
	}

	// E6 now exercises the real §3.5 directory path: the probed list is
	// the live membership view downloaded from the central server.
	if !r.Refreshed {
		t.Error("selection probed the static preload, not the live directory view")
	}

	stale, err := GatewaySelectionWithStaleList(6)
	if err != nil {
		t.Fatal(err)
	}
	if !stale.Refreshed {
		t.Error("stale list did not trigger refresh")
	}
	if stale.ChosenRTT > 2*time.Second {
		t.Errorf("post-refresh RTT = %v", stale.ChosenRTT)
	}
}

func TestAblations(t *testing.T) {
	comp, err := AblationCompression(1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) != 3 {
		t.Fatalf("compression rows = %d", len(comp))
	}
	byName := map[string]CompressionRow{}
	for _, r := range comp {
		byName[r.Codec] = r
	}
	if byName["lzss"].WireBytes >= byName["none"].WireBytes {
		t.Errorf("lzss %d >= none %d", byName["lzss"].WireBytes, byName["none"].WireBytes)
	}
	if byName["lzss"].UploadTime >= byName["none"].UploadTime {
		t.Errorf("lzss upload not faster")
	}

	sec, err := AblationSecurity(1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec) != 2 || sec[1].WireBytes <= sec[0].WireBytes {
		t.Fatalf("security rows = %+v", sec)
	}

	flav, err := AblationFlavour(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(flav) != 2 {
		t.Fatalf("flavour rows = %d", len(flav))
	}
	// XML envelope is bulkier than the binary one.
	var agl, voy FlavourRow
	for _, r := range flav {
		if r.Flavour == "aglets" {
			agl = r
		} else {
			voy = r
		}
	}
	if voy.EnvelopeBytes <= agl.EnvelopeBytes {
		t.Errorf("voyager %d <= aglets %d bytes", voy.EnvelopeBytes, agl.EnvelopeBytes)
	}
	if agl.JourneyTime <= 0 || voy.JourneyTime <= 0 {
		t.Error("journey times missing")
	}

	pol, err := AblationSelectionPolicy(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(pol) != 2 {
		t.Fatalf("policy rows = %d", len(pol))
	}
}

func TestTablesRender(t *testing.T) {
	rows, err := Fig12(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tbl := Fig12Table(rows)
	ascii := tbl.ASCII()
	if !strings.Contains(ascii, "Figure 12") || !strings.Contains(ascii, "client-server") {
		t.Fatalf("ascii = %s", ascii)
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "transactions,pdagent") {
		t.Fatalf("csv = %s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 4 { // header + 3 rows
		t.Fatalf("csv lines = %d", got)
	}

	t2 := &Table{Title: "q", Columns: []string{"a", "b"}}
	t2.AddRow(`x,"y`) // needs quoting, padding
	if !strings.Contains(t2.CSV(), `"x,""y"`) {
		t.Fatalf("csv quoting: %s", t2.CSV())
	}
}

func TestDeterministicSeries(t *testing.T) {
	// Network randomness (jitter, loss) is fully seeded, so replays
	// agree to well under a percent. Exact byte-equality is impossible:
	// crypto randomness (subscription secrets, session keys) shifts the
	// compressed PI size by a few bytes, i.e. a few hundred µs of
	// simulated bandwidth time.
	const tolerance = 10 * time.Millisecond
	near := func(x, y time.Duration) bool {
		d := x - y
		if d < 0 {
			d = -d
		}
		return d <= tolerance
	}
	a, err := Fig12(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig12(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !near(a[i].PDAgent, b[i].PDAgent) ||
			!near(a[i].ClientServer, b[i].ClientServer) ||
			!near(a[i].WebBased, b[i].WebBased) {
			t.Fatalf("row %d differs beyond tolerance: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestE7CrashRecovery(t *testing.T) {
	rows, err := E7(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Runs are deterministic up to the random dispatch nonce, whose
	// compressibility shifts the wireless upload delay by a few bytes'
	// worth of bandwidth — allow a small tolerance around the exact
	// claim (recovery costs the restart outage, nothing more).
	const tol = 100 * time.Millisecond
	for _, r := range rows {
		if r.Healthy <= 0 || r.Crash <= 0 {
			t.Fatalf("n=%d: non-positive completion times %+v", r.N, r)
		}
		overhead := r.Crash - r.Healthy
		if overhead < E7Outage-tol || overhead > E7Outage+tol {
			t.Fatalf("n=%d: recovery overhead %v, want ~%v (crash %v, healthy %v)",
				r.N, overhead, E7Outage, r.Crash, r.Healthy)
		}
	}
	// Replay under the same seed stays within the nonce tolerance.
	again, err := MeasureCompletion(7, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := again - rows[1].Crash; d < -tol || d > tol {
		t.Fatalf("crash measurement not reproducible: %v vs %v", again, rows[1].Crash)
	}
	tbl := E7Table(rows)
	if len(tbl.Rows) != 3 || len(tbl.Columns) != 4 {
		t.Fatalf("table shape: %+v", tbl)
	}
}

func TestE8DisconnectedDelivery(t *testing.T) {
	outages := []time.Duration{time.Second, 4 * time.Second}
	rows, err := E8(7, outages)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The disconnected device pays exactly its outage on top of the
	// always-on total (the result waited in the mailbox), up to the
	// nonce-compressibility tolerance of the E7 test.
	const tol = 100 * time.Millisecond
	for _, r := range rows {
		if r.AlwaysOn <= 0 || r.Disconnected <= r.AlwaysOn {
			t.Fatalf("outage=%v: totals %+v", r.Outage, r)
		}
		extra := r.Disconnected - r.AlwaysOn
		if extra < r.Outage-tol || extra > r.Outage+tol {
			t.Fatalf("outage=%v: disconnection cost %v, want ~%v", r.Outage, extra, r.Outage)
		}
		// Delivery lag is the outage plus the session round trips —
		// strictly more than the outage, well under outage + 10s.
		if r.DeliveryLag <= r.Outage || r.DeliveryLag > r.Outage+10*time.Second {
			t.Fatalf("outage=%v: delivery lag %v out of range", r.Outage, r.DeliveryLag)
		}
	}
	tbl := E8Table(rows)
	if len(tbl.Rows) != 2 || len(tbl.Columns) != 4 {
		t.Fatalf("table shape: %+v", tbl)
	}
}
