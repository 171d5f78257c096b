package churnsim

import "testing"

// Per-device memory budgets, gated in CI (go1.24, 64-bit): room for
// runtime jitter, but a regression class is caught, not a few stray
// bytes.
//
//   - idle: 567 B/device at 100k devices, 589 at -short's 20k = mailbox
//     struct + boxes map slot + token string + wait channel (lazy dedup
//     map: a device that never got mail allocates none). The budget is
//     the 535 B read when the hub's idle cost was last cut, + 20 %.
//   - drained: ~730 B/device after dedup aging, budget ~1.5x that —
//     before PR 6 a drained 64-entry history cost ~8.9 KB/device forever
//     (dedup ids plus the map buckets holding them); the TTL sweep must
//     reclaim it or a fleet that got mail yesterday stays 12x as
//     expensive for good.
const (
	idleDeviceBudgetBytes    = 642
	drainedDeviceBudgetBytes = 1700
)

// TestIdleDeviceMemoryBudget gates the marginal cost of a fresh parked
// device: Touch + armed long-poll, no mail ever.
func TestIdleDeviceMemoryBudget(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	got, err := IdleDeviceBytes(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("idle device: %.1f B/device (n=%d, budget %d)", got, n, idleDeviceBudgetBytes)
	if got > idleDeviceBudgetBytes {
		t.Fatalf("idle device costs %.1f B, budget %d B", got, idleDeviceBudgetBytes)
	}
}

// TestDrainedDeviceMemoryBudget gates the steady-state cost of a
// device that received and acked a 64-entry history yesterday: the
// dedup window must age out and be reclaimed, not linger forever.
func TestDrainedDeviceMemoryBudget(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 5_000
	}
	got, err := DrainedDeviceBytes(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("drained device: %.1f B/device (n=%d, history=64, budget %d)", got, n, drainedDeviceBudgetBytes)
	if got > drainedDeviceBudgetBytes {
		t.Fatalf("drained device costs %.1f B, budget %d B", got, drainedDeviceBudgetBytes)
	}
}
