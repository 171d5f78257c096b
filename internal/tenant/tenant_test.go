package tenant

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestParseConfig(t *testing.T) {
	doc := []byte(`<tenants>
  <tenant id="acme" secret="a" weight="4" rate="100" burst="200" max-inflight="500"
          max-residents="1000" max-mailbox-bytes="1048576" max-journal-bytes="2097152"/>
  <tenant id="hog" secret="b" rate="20" burst="5" max-inflight="16"/>
</tenants>`)
	ts, err := ParseConfig(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("parsed %d tenants, want 2", len(ts))
	}
	acme := Tenant{ID: "acme", Secret: "a", Limits: Limits{
		Weight: 4, RatePerSec: 100, Burst: 200,
		MaxInFlight: 500, MaxResidents: 1000,
		MaxMailboxBytes: 1 << 20, MaxJournalBytes: 2 << 20,
	}}
	if *ts[0] != acme {
		t.Fatalf("acme parsed as %+v, want %+v", ts[0], acme)
	}
	if ts[1].Limits.MaxInFlight != 16 || ts[1].Limits.Burst != 5 {
		t.Fatalf("hog parsed as %+v", ts[1])
	}
	if _, err := ParseConfig([]byte(`<nope/>`)); err == nil {
		t.Fatal("wrong root accepted")
	}
	if _, err := ParseConfig([]byte(`<tenants><tenant secret="x"/></tenants>`)); err == nil {
		t.Fatal("tenant without id accepted")
	}
}

// TestRegistryPutAndDefault: Put replaces an account in place, and the
// default account resolves unlimited without registration or
// allocation (every single-tenant dispatch resolves it).
func TestRegistryPutAndDefault(t *testing.T) {
	reg := NewRegistry()
	acme := &Tenant{ID: "acme", Secret: "s3", Limits: Limits{Weight: 4}}
	for _, tn := range []*Tenant{acme, {ID: "hog", Secret: "s7"}} {
		if err := reg.Put(tn); err != nil {
			t.Fatal(err)
		}
	}
	acme.Limits.Weight = 8
	if err := reg.Put(acme); err != nil {
		t.Fatal(err)
	}
	if got, ok := reg.Get("acme"); reg.Len() != 2 || !ok || *got != *acme {
		t.Fatalf("after replacing acme: %d tenants, acme = %+v; want 2 and %+v", reg.Len(), got, acme)
	}
	if err := reg.Put(&Tenant{Secret: "x"}); err == nil {
		t.Fatal("tenant without id accepted")
	}
	def, ok := reg.Get(DefaultID)
	if !ok || def.Limits != (Limits{}) || reg.Registered(DefaultID) {
		t.Fatalf("default tenant = %+v, %v; want unlimited and unregistered", def, ok)
	}
	if n := testing.AllocsPerRun(100, func() { reg.Get(DefaultID) }); n != 0 {
		t.Fatalf("Get(DefaultID) allocates %.0f times, want 0", n)
	}
}

func TestBucketRefill(t *testing.T) {
	b := NewBucket(10, 2) // 10 tokens/s, depth 2
	now := int64(0)
	if !b.Take(now) || !b.Take(now) {
		t.Fatal("burst of 2 refused")
	}
	if b.Take(now) {
		t.Fatal("third token granted from an empty bucket")
	}
	if ra := b.RetryAfterNs(now); ra <= 0 || ra > int64(100*time.Millisecond) {
		t.Fatalf("retry-after %dns, want (0, 100ms]", ra)
	}
	now += int64(100 * time.Millisecond) // one token refilled
	if !b.Take(now) {
		t.Fatal("refilled token refused")
	}
	if b.Take(now) {
		t.Fatal("token granted beyond refill")
	}
	// A long idle period credits at most the burst depth.
	now += int64(time.Hour)
	for i := 0; i < 2; i++ {
		if !b.Take(now) {
			t.Fatalf("token %d refused after idle", i)
		}
	}
	if b.Take(now) {
		t.Fatal("burst depth exceeded after idle")
	}
}

// TestBucketConcurrent hammers one bucket from many goroutines under
// -race: exactly burst+refill tokens may be granted, never more.
func TestBucketConcurrent(t *testing.T) {
	const (
		workers = 8
		tries   = 1000
	)
	b := NewBucket(1000, 100) // depth 100
	var granted sync.Map
	var wg sync.WaitGroup
	var count int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < tries; i++ {
				// Frozen clock: no refill, so grants are bounded by depth.
				if b.Take(0) {
					mu.Lock()
					count++
					mu.Unlock()
					granted.Store(fmt.Sprintf("%d-%d", w, i), true)
				}
			}
		}(w)
	}
	wg.Wait()
	if count != 100 {
		t.Fatalf("granted %d tokens from a depth-100 bucket on a frozen clock", count)
	}
}

func TestAdmissionRateAndQuota(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Put(&Tenant{ID: "hog", Secret: "s", Limits: Limits{RatePerSec: 10, Burst: 2, MaxInFlight: 3}}); err != nil {
		t.Fatal(err)
	}
	led := NewLedger()
	now := int64(0)
	ad := NewAdmission(reg, led)
	ad.Now = func() int64 { return now }

	// Burst admits, then the bucket refuses with a Retry-After hint.
	for i := 0; i < 2; i++ {
		if d := ad.Admit("hog"); !d.OK {
			t.Fatalf("burst dispatch %d refused: %s", i, d.Reason)
		}
	}
	d := ad.Admit("hog")
	if d.OK || d.Kind != RefusedRate {
		t.Fatalf("over-rate dispatch: %+v, want a %s refusal", d, RefusedRate)
	}
	if d.RetryAfterNs <= 0 {
		t.Fatalf("over-rate refusal missing Retry-After: %+v", d)
	}
	// Refill one token, then hit the in-flight quota instead.
	now += int64(100 * time.Millisecond)
	led.AddInFlight("hog", 3)
	d = ad.Admit("hog")
	if d.OK || d.Kind != RefusedQuota {
		t.Fatalf("over-quota dispatch: %+v, want a %s refusal", d, RefusedQuota)
	}
	led.AddInFlight("hog", -1)
	now += int64(100 * time.Millisecond)
	if d := ad.Admit("hog"); !d.OK {
		t.Fatalf("in-quota dispatch refused: %s", d.Reason)
	}
	// Unknown tenants are refused outright.
	if d := ad.Admit("ghost"); d.OK || d.Kind != RefusedQuota {
		t.Fatalf("unknown tenant: %+v, want a %s refusal", d, RefusedQuota)
	}
	// The default account is unlimited.
	if d := ad.Admit(DefaultID); !d.OK {
		t.Fatalf("default tenant refused: %s", d.Reason)
	}
}

func TestAdmissionClusterWideQuota(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Put(&Tenant{ID: "acme", Secret: "s", Limits: Limits{MaxInFlight: 10}}); err != nil {
		t.Fatal(err)
	}
	led := NewLedger()
	ad := NewAdmission(reg, led)
	remote := map[string]Usage{}
	ad.Remote = func() map[string]Usage { return remote }

	led.AddInFlight("acme", 4)
	if d := ad.Admit("acme"); !d.OK {
		t.Fatalf("local 4/10 refused: %s", d.Reason)
	}
	// The rest of the cluster reports 6 more: the quota is now full.
	remote["acme"] = Usage{Tenant: "acme", InFlight: 6}
	if d := ad.Admit("acme"); d.OK {
		t.Fatal("cluster-wide 10/10 admitted")
	}
}

func TestAdmissionSlowUsageSupplier(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Put(&Tenant{ID: "acme", Secret: "s", Limits: Limits{MaxResidents: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put(&Tenant{ID: "beta", Secret: "s", Limits: Limits{MaxInFlight: 5}}); err != nil {
		t.Fatal(err)
	}
	ad := NewAdmission(reg, NewLedger())
	slowCalls := 0
	ad.Slow = func(id string) Usage {
		slowCalls++
		return Usage{Tenant: Label(id), Residents: 5}
	}
	// acme has a residents quota: the slow walk runs and refuses.
	if d := ad.Admit("acme"); d.OK {
		t.Fatal("acme admitted at residents quota")
	}
	if slowCalls != 1 {
		t.Fatalf("slow supplier called %d times, want 1", slowCalls)
	}
	// beta has only an in-flight quota: no walk, and the slow-side
	// residents count must not block it.
	if d := ad.Admit("beta"); !d.OK {
		t.Fatalf("beta refused: %s", d.Reason)
	}
	if slowCalls != 1 {
		t.Fatalf("slow supplier called %d times for quota-free check", slowCalls)
	}
}

func TestProtectedFairShare(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Put(&Tenant{ID: "calm", Secret: "a", Limits: Limits{Weight: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put(&Tenant{ID: "noisy", Secret: "b", Limits: Limits{Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	led := NewLedger()
	ad := NewAdmission(reg, led)
	// Watermark 16, weights 3:1 → shares 12 and 4.
	led.AddInFlight("noisy", 10)
	led.AddInFlight("calm", 2)
	if ad.Protected("noisy", 16) {
		t.Fatal("noisy (10 >= share 4) protected")
	}
	if !ad.Protected("calm", 16) {
		t.Fatal("calm (2 < share 12) not protected")
	}
	// Nobody is protected without a watermark.
	if ad.Protected("calm", 0) {
		t.Fatal("protected with no watermark")
	}
}

func TestLedgerSnapshot(t *testing.T) {
	led := NewLedger()
	led.AddInFlight("b", 2)
	led.AddInFlight("a", 1)
	led.AddInFlight("", 5)
	snap := led.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d rows, want 3", len(snap))
	}
	// Sorted by label; "" renders as "default".
	if snap[0].Tenant != "a" || snap[1].Tenant != "b" || snap[2].Tenant != "default" {
		t.Fatalf("snapshot order %v", []string{snap[0].Tenant, snap[1].Tenant, snap[2].Tenant})
	}
	if snap[2].InFlight != 5 {
		t.Fatalf("default in-flight = %d, want 5", snap[2].InFlight)
	}
	// Negative tallies clamp.
	led.AddInFlight("b", -5)
	if got := led.UsageOf("b").InFlight; got != 0 {
		t.Fatalf("negative in-flight surfaced as %d", got)
	}
}
