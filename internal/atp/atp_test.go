package atp

import (
	"strings"
	"testing"
	"testing/quick"

	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
)

// realImage builds an Image from an actual compiled agent so payloads
// are representative.
func realImage(t testing.TB) *Image {
	t.Helper()
	prog, err := mascript.Compile(`
		let x = [1, 2, 3];
		migrate("host-b");
		deliver("x", x);
	`)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := mavm.New(prog, "ag-test-1", map[string]mavm.Value{"p": mavm.Str("v")})
	if err != nil {
		t.Fatal(err)
	}
	pbytes, err := mavm.MarshalProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	sbytes, err := mavm.MarshalState(vm)
	if err != nil {
		t.Fatal(err)
	}
	return &Image{
		AgentID: "ag-test-1",
		Home:    "gw-0",
		CodeID:  "code-7",
		Owner:   "device-42",
		Program: pbytes,
		State:   sbytes,
	}
}

func codecs() []Codec { return []Codec{AgletsCodec{}, VoyagerCodec{}} }

func TestCodecRoundTrip(t *testing.T) {
	im := realImage(t)
	for _, c := range codecs() {
		t.Run(c.Name(), func(t *testing.T) {
			data, err := c.Encode(im)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			back, err := c.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if back.AgentID != im.AgentID || back.Home != im.Home ||
				back.CodeID != im.CodeID || back.Owner != im.Owner {
				t.Fatalf("identity fields changed: %+v", back)
			}
			if string(back.Program) != string(im.Program) || string(back.State) != string(im.State) {
				t.Fatal("payload bytes changed")
			}
			// The decoded image must reconstruct a runnable VM.
			prog, err := mavm.UnmarshalProgram(back.Program)
			if err != nil {
				t.Fatalf("program from decoded image: %v", err)
			}
			if _, err := mavm.UnmarshalState(prog, back.State); err != nil {
				t.Fatalf("state from decoded image: %v", err)
			}
		})
	}
}

func TestCrossCodecIsolation(t *testing.T) {
	// One flavour must not silently accept the other's envelopes.
	im := realImage(t)
	a, _ := AgletsCodec{}.Encode(im)
	v, _ := VoyagerCodec{}.Encode(im)
	if _, err := (VoyagerCodec{}).Decode(a); err == nil {
		t.Error("voyager decoded an aglets envelope")
	}
	if _, err := (AgletsCodec{}).Decode(v); err == nil {
		t.Error("aglets decoded a voyager envelope")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Flavours() {
		c, err := ByName(name)
		if err != nil || c.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ByName("jade"); err == nil {
		t.Error("unknown flavour accepted")
	}
}

func TestValidation(t *testing.T) {
	base := realImage(t)
	mutations := map[string]func(*Image){
		"no id":      func(im *Image) { im.AgentID = "" },
		"no home":    func(im *Image) { im.Home = "" },
		"no program": func(im *Image) { im.Program = nil },
		"no state":   func(im *Image) { im.State = nil },
	}
	for name, mutate := range mutations {
		im := *base
		mutate(&im)
		if err := im.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
		for _, c := range codecs() {
			if _, err := c.Encode(&im); err == nil {
				t.Errorf("%s: %s Encode accepted invalid image", name, c.Name())
			}
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	im := realImage(t)
	for _, c := range codecs() {
		good, _ := c.Encode(im)
		cases := map[string][]byte{
			"empty":     {},
			"garbage":   []byte("garbage input that is not an envelope"),
			"truncated": good[:len(good)/3],
		}
		for name, data := range cases {
			if _, err := c.Decode(data); err == nil {
				t.Errorf("%s/%s: Decode succeeded", c.Name(), name)
			}
		}
	}
	// Oversized input.
	big := make([]byte, MaxImageSize+1)
	for _, c := range codecs() {
		if _, err := c.Decode(big); err == nil {
			t.Errorf("%s: oversized input accepted", c.Name())
		}
	}
}

func TestAgletsTruncationSweep(t *testing.T) {
	im := realImage(t)
	data, _ := AgletsCodec{}.Encode(im)
	step := len(data)/50 + 1
	for cut := 0; cut < len(data); cut += step {
		if _, err := (AgletsCodec{}).Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestQuickIdentityFieldsRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		c := c
		f := func(id, home, codeID, owner string, prog, state []byte) bool {
			if id == "" || home == "" || len(prog) == 0 || len(state) == 0 {
				return true // invalid images are rejected; covered elsewhere
			}
			im := &Image{AgentID: id, Home: home, CodeID: codeID, Owner: owner, Program: prog, State: state}
			data, err := c.Encode(im)
			if err != nil {
				return false
			}
			back, err := c.Decode(data)
			if err != nil {
				return false
			}
			return back.AgentID == id && back.Home == home && back.CodeID == codeID &&
				back.Owner == owner && string(back.Program) == string(prog) && string(back.State) == string(state)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestVoyagerEnvelopeIsXML(t *testing.T) {
	data, _ := VoyagerCodec{}.Encode(realImage(t))
	if !strings.Contains(string(data), "<voyager-agent") {
		t.Fatalf("voyager envelope not XML: %q", data[:40])
	}
}
