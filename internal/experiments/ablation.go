package experiments

import (
	"fmt"
	"time"

	"pdagent/internal/atp"
	"pdagent/internal/compress"
	"pdagent/internal/core"
	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
	"pdagent/internal/pisec"
	"pdagent/internal/services"
	"pdagent/internal/wire"
)

// representativePI builds the e-banking PI with a 5-transaction
// workload — the payload the ablations size and time.
func representativePI() *wire.PackedInformation {
	params := ebankingParams([]string{"bank-a", "bank-b"}, 5)
	return &wire.PackedInformation{
		CodeID:      core.AppEBanking,
		DispatchKey: "0123456789abcdef0123456789abcdef",
		Owner:       "ablation-device",
		Source:      core.EBankingSource,
		Params:      params,
	}
}

// uploadTime computes the simulated wireless upload time for a body of
// the given size under the evaluation link profile (mean jitter).
func uploadTime(size int) time.Duration {
	wireless, _ := experimentLinks()
	d := wireless.Latency + wireless.Jitter/2
	d += time.Duration(float64(size) / wireless.Bandwidth * float64(time.Second))
	return d
}

// CompressionRow is one A1 ablation point: PI wire size and upload
// time by codec.
type CompressionRow struct {
	Codec      string
	WireBytes  int
	UploadTime time.Duration
}

// AblationCompression measures the PI pipeline under each compression
// codec (sealed, as in the deployed configuration): flate-dict is the
// upload to a gateway whose mailbox answers came in it, LZSS the upload
// to any other.
func AblationCompression(keyBits int) ([]CompressionRow, error) {
	kp, err := pisec.GenerateKeyPair(keyBits)
	if err != nil {
		return nil, err
	}
	pi := representativePI()
	var rows []CompressionRow
	for _, codec := range []compress.Codec{compress.None, compress.LZSS, compress.Flate, compress.FlateDict} {
		body, err := wire.Pack(pi, codec, kp.Public())
		if err != nil {
			return nil, err
		}
		rows = append(rows, CompressionRow{
			Codec:      codec.String(),
			WireBytes:  len(body),
			UploadTime: uploadTime(len(body)),
		})
	}
	return rows, nil
}

// CompressionTable renders A1.
func CompressionTable(rows []CompressionRow) *Table {
	t := &Table{
		Title:   "A1 — PI compression codec (sealed payload)",
		Columns: []string{"codec", "wire bytes", "upload time"},
	}
	for _, r := range rows {
		t.AddRow(r.Codec, fmt.Sprint(r.WireBytes), secs(r.UploadTime))
	}
	return t
}

// SecurityRow is one A2 ablation point: the cost of the Figure 7
// security model.
type SecurityRow struct {
	Secure     bool
	WireBytes  int
	UploadTime time.Duration
}

// AblationSecurity measures the sealed vs. plain PI pipeline (LZSS).
func AblationSecurity(keyBits int) ([]SecurityRow, error) {
	kp, err := pisec.GenerateKeyPair(keyBits)
	if err != nil {
		return nil, err
	}
	pi := representativePI()
	var rows []SecurityRow
	for _, secure := range []bool{false, true} {
		var key *pisec.PublicKey
		if secure {
			key = kp.Public()
		}
		body, err := wire.Pack(pi, compress.LZSS, key)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SecurityRow{
			Secure:     secure,
			WireBytes:  len(body),
			UploadTime: uploadTime(len(body)),
		})
	}
	return rows, nil
}

// SecurityTable renders A2.
func SecurityTable(rows []SecurityRow) *Table {
	t := &Table{
		Title:   "A2 — PI encryption (Figure 7) on/off (LZSS)",
		Columns: []string{"secure", "wire bytes", "upload time"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Secure), fmt.Sprint(r.WireBytes), secs(r.UploadTime))
	}
	return t
}

// FlavourRow is one A3 ablation point: MAS codec flavour costs.
type FlavourRow struct {
	Flavour       string
	EnvelopeBytes int
	JourneyTime   time.Duration
}

// AblationFlavour measures the agent-transfer envelope size per codec
// flavour and the end-to-end journey time in a world running entirely
// on that flavour.
func AblationFlavour(seed int64) ([]FlavourRow, error) {
	// A representative in-flight agent image.
	prog, err := mascript.Compile(core.EBankingSource)
	if err != nil {
		return nil, err
	}
	vm, err := mavm.New(prog, "ablation-agent", ebankingParams([]string{"bank-a", "bank-b"}, 5))
	if err != nil {
		return nil, err
	}
	pb, err := mavm.MarshalProgram(prog)
	if err != nil {
		return nil, err
	}
	sb, err := mavm.MarshalState(vm)
	if err != nil {
		return nil, err
	}
	im := &atp.Image{
		AgentID: "ablation-agent", Home: "gw-0", CodeID: core.AppEBanking,
		Owner: "ablation-device", Program: pb, State: sb,
	}

	var rows []FlavourRow
	for _, flavour := range atp.Flavours() {
		codec, err := atp.ByName(flavour)
		if err != nil {
			return nil, err
		}
		env, err := codec.Encode(im)
		if err != nil {
			return nil, err
		}
		journey, err := measureFlavourJourney(seed, flavour)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FlavourRow{
			Flavour:       flavour,
			EnvelopeBytes: len(env),
			JourneyTime:   journey,
		})
	}
	return rows, nil
}

// measureFlavourJourney runs the standard e-banking journey in a world
// whose hosts all speak one flavour and returns the total virtual time
// from dispatch to result availability (device + journey).
func measureFlavourJourney(seed int64, flavour string) (time.Duration, error) {
	wireless, wired := experimentLinks()
	hosts := map[string]core.HostSpec{}
	for _, spec := range []string{"bank-a", "bank-b"} {
		hosts[spec] = core.HostSpec{
			Flavour: flavour,
			Bank:    bankFor(spec),
		}
	}
	world, err := core.NewSimWorld(core.SimConfig{
		Seed:     seed,
		Hosts:    hosts,
		Wireless: &wireless,
		Wired:    &wired,
		KeyBits:  1024,
	})
	if err != nil {
		return 0, err
	}
	dev, err := world.NewDevice("flavour-device")
	if err != nil {
		return 0, err
	}
	ctx, clock := world.NewJourney()
	if err := dev.Subscribe(ctx, "gw-0", core.AppEBanking); err != nil {
		return 0, err
	}
	t0 := clock.Now()
	agentID, err := dev.Dispatch(ctx, core.AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, 5))
	if err != nil {
		return 0, err
	}
	world.Run()
	rd, err := dev.Collect(ctx, agentID)
	if err != nil {
		return 0, err
	}
	if !rd.OK() {
		return 0, fmt.Errorf("experiments: flavour journey failed: %s", rd.Error)
	}
	return clock.Now() - t0, nil
}

func bankFor(addr string) *services.Bank {
	return services.NewBank(addr, map[string]int64{"alice": 10_000, "bob": 5_000})
}

// FlavourTable renders A3.
func FlavourTable(rows []FlavourRow) *Table {
	t := &Table{
		Title:   "A3 — MAS codec flavour (agent envelope + journey)",
		Columns: []string{"flavour", "envelope bytes", "journey time"},
	}
	for _, r := range rows {
		t.AddRow(r.Flavour, fmt.Sprint(r.EnvelopeBytes), secs(r.JourneyTime))
	}
	return t
}

// PolicyRow is one A4 ablation point: gateway selection policy.
type PolicyRow struct {
	Policy       string
	MeanPIUpload time.Duration
	ProbeCost    time.Duration
}

// AblationSelectionPolicy compares RTT-probe selection against not
// probing at all over the heterogeneous five-gateway world. A device
// that skips probing has no distance information, so its expected PI
// round-trip is the mean over all list entries; probing pays its sweep
// cost once but always lands on the nearest gateway.
func AblationSelectionPolicy(seed int64) ([]PolicyRow, error) {
	report, err := GatewaySelection(seed)
	if err != nil {
		return nil, err
	}
	pi := representativePI()
	body, err := wire.Pack(pi, compress.LZSS, nil)
	if err != nil {
		return nil, err
	}
	// PI round trip to a gateway: its probed RTT plus the uplink
	// bandwidth term for the PI body.
	bwTerm := time.Duration(float64(len(body)) / 18_000 * float64(time.Second))
	cost := func(addr string) (time.Duration, error) {
		for _, p := range report.Probes {
			if p.Addr == addr {
				if p.Err != nil {
					return 0, p.Err
				}
				return p.RTT + bwTerm, nil
			}
		}
		return 0, fmt.Errorf("experiments: no probe for %s", addr)
	}
	var mean time.Duration
	counted := 0
	for _, p := range report.Probes {
		if p.Err != nil {
			continue
		}
		mean += p.RTT + bwTerm
		counted++
	}
	if counted == 0 {
		return nil, fmt.Errorf("experiments: no reachable gateways")
	}
	mean /= time.Duration(counted)
	chosenCost, err := cost(report.Chosen)
	if err != nil {
		return nil, err
	}
	return []PolicyRow{
		{Policy: "no-probe (expected over list)", MeanPIUpload: mean},
		{Policy: "rtt-probe (" + report.Chosen + ")", MeanPIUpload: chosenCost, ProbeCost: report.ProbeCost},
	}, nil
}

// PolicyTable renders A4.
func PolicyTable(rows []PolicyRow) *Table {
	t := &Table{
		Title:   "A4 — gateway selection policy (PI round-trip to chosen gateway)",
		Columns: []string{"policy", "pi round-trip", "probe cost"},
	}
	for _, r := range rows {
		probe := "-"
		if r.ProbeCost > 0 {
			probe = secs(r.ProbeCost)
		}
		t.AddRow(r.Policy, secs(r.MeanPIUpload), probe)
	}
	return t
}
