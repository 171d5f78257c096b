package pisec

import (
	"bytes"
	"sync"
	"testing"
)

var (
	appendKPOnce sync.Once
	appendKP     *KeyPair
)

func appendKeyPair(t *testing.T) *KeyPair {
	appendKPOnce.Do(func() {
		kp, err := GenerateKeyPair(1024)
		if err != nil {
			t.Fatal(err)
		}
		appendKP = kp
	})
	return appendKP
}

// TestAppendSealOpenRoundTrip proves the append-style pair inverts and
// honours a destination prefix.
func TestAppendSealOpenRoundTrip(t *testing.T) {
	kp := appendKeyPair(t)
	plaintext := []byte("packed information payload <&> with bytes \x00\x01\x02")
	body, err := AppendSeal([]byte("P"), kp.Public(), plaintext)
	if err != nil {
		t.Fatal(err)
	}
	if body[0] != 'P' {
		t.Fatal("AppendSeal clobbered the prefix")
	}
	out, err := AppendOpen([]byte("Q"), kp, body[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, append([]byte("Q"), plaintext...)) {
		t.Fatal("AppendOpen round trip mangled plaintext")
	}
}

// TestAppendOpenRejectsTampering flips one byte anywhere material and
// expects the digest check to refuse it.
func TestAppendOpenRejectsTampering(t *testing.T) {
	kp := appendKeyPair(t)
	sealed, err := AppendSeal(nil, kp.Public(), []byte("integrity matters"))
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{len(envelopeMagic) + 3, len(sealed) / 2, len(sealed) - 1} {
		bad := append([]byte(nil), sealed...)
		bad[at] ^= 0x01
		if _, err := AppendOpen(nil, kp, bad); err == nil {
			t.Fatalf("tampered byte at %d accepted", at)
		}
	}
	if _, err := AppendOpen(nil, kp, sealed[:10]); err == nil {
		t.Fatal("truncated envelope accepted")
	}
}
