package pisec

import (
	"bytes"
	"crypto/aes"
	"crypto/md5"
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// testKeyPair is generated once; RSA keygen is slow.
var (
	testKeyOnce sync.Once
	testKey     *KeyPair
)

func keyPair(t testing.TB) *KeyPair {
	testKeyOnce.Do(func() {
		kp, err := GenerateKeyPair(DefaultKeyBits)
		if err != nil {
			t.Fatalf("GenerateKeyPair: %v", err)
		}
		testKey = kp
	})
	return testKey
}

// mustSeal seals pt through pk or fails the test.
func mustSeal(t testing.TB, pk *PublicKey, pt []byte) []byte {
	t.Helper()
	body, err := AppendSeal(nil, pk, pt)
	if err != nil {
		t.Fatalf("AppendSeal: %v", err)
	}
	return body
}

func TestSealOpenRoundTrip(t *testing.T) {
	kp := keyPair(t)
	for _, msg := range [][]byte{
		{},
		[]byte("x"),
		[]byte(strings.Repeat("<pi>packed information</pi>", 100)),
	} {
		got, err := AppendOpen(nil, kp, mustSeal(t, kp.Public(), msg))
		if err != nil {
			t.Fatalf("AppendOpen: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round-trip mismatch: %d in, %d out", len(msg), len(got))
		}
	}
}

func TestTamperDetection(t *testing.T) {
	kp := keyPair(t)
	body := mustSeal(t, kp.Public(), []byte("transfer 100 from a to b"))
	// Flip one ciphertext bit: the MD5 check of Figure 7 must fail.
	body[len(body)-1] ^= 1
	if _, err := AppendOpen(nil, kp, body); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("AppendOpen after tamper = %v, want ErrDigestMismatch", err)
	}
	body[len(body)-1] ^= 1
	if _, err := AppendOpen(nil, kp, body); err != nil {
		t.Fatalf("AppendOpen after restore: %v", err)
	}
	// Tampering with the wrapped key is also caught by the digest.
	body[len(envelopeMagic)+2+3] ^= 0x40
	if _, err := AppendOpen(nil, kp, body); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("AppendOpen after key tamper = %v", err)
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	kp := keyPair(t)
	sealed := mustSeal(t, kp.Public(), []byte("payload"))
	// A wrapped key one byte short of the modulus, declared honestly.
	short := append([]byte(nil), sealed[:len(envelopeMagic)]...)
	short = binary.BigEndian.AppendUint16(short, uint16(kp.priv.Size()-1))
	short = append(short, sealed[len(envelopeMagic)+3:]...)
	cases := map[string][]byte{
		"empty":             {},
		"bad magic":         []byte("NOTPIS0000000000000000000000000000000000"),
		"truncated":         []byte("PISEC1\x01"),
		"short key":         append([]byte("PISEC1\xFF\xFF"), make([]byte, 10)...),
		"key below modulus": short,
		"no ciphertext yet": sealed[:len(envelopeMagic)+2+kp.priv.Size()+aes.BlockSize+md5.Size-1],
	}
	for name, b := range cases {
		out, err := AppendOpen([]byte("dst"), kp, b)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		if string(out) != "dst" {
			t.Errorf("%s: dst extended to %q on error", name, out)
		}
	}
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	kp := keyPair(t)
	s, err := kp.Public().Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	pk, err := ParsePublicKey(s)
	if err != nil {
		t.Fatalf("ParsePublicKey: %v", err)
	}
	if pk.Fingerprint() != kp.Public().Fingerprint() {
		t.Fatal("fingerprint changed across marshal round-trip")
	}
	// The parsed key must actually work for sealing.
	got, err := AppendOpen(nil, kp, mustSeal(t, pk, []byte("hello")))
	if err != nil || string(got) != "hello" {
		t.Fatalf("AppendOpen with reparsed key = %q, %v", got, err)
	}
}

func TestParsePublicKeyErrors(t *testing.T) {
	if _, err := ParsePublicKey("not-base64!!!"); err == nil {
		t.Error("bad base64 accepted")
	}
	if _, err := ParsePublicKey("aGVsbG8="); err == nil {
		t.Error("non-DER accepted")
	}
}

func TestOpenWithWrongKey(t *testing.T) {
	kp := keyPair(t)
	body := mustSeal(t, kp.Public(), []byte("secret"))
	// Same modulus size: the RSA unwrap itself refuses.
	same, err := GenerateKeyPair(DefaultKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendOpen(nil, same, body); !errors.Is(err, rsa.ErrDecryption) {
		t.Fatalf("AppendOpen with wrong private key = %v, want rsa.ErrDecryption", err)
	}
	// Another modulus size is refused before any crypto runs.
	other, err := GenerateKeyPair(1024) // smaller for test speed
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendOpen(nil, other, body); !errors.Is(err, ErrMalformed) {
		t.Fatalf("AppendOpen with a 1024-bit key = %v, want ErrMalformed", err)
	}
	if full, resumed, n := other.UnsealStats(); full+resumed != 0 || n != 0 {
		t.Fatalf("size-mismatched envelope reached the unseal stage: full=%d resumed=%d sessions=%d", full, resumed, n)
	}
}

func TestDispatchKey(t *testing.T) {
	secret, err := NewSubscriptionSecret()
	if err != nil {
		t.Fatal(err)
	}
	key := DispatchKey("code-17", secret)
	if len(key) != 32 {
		t.Fatalf("key length = %d, want 32 hex chars", len(key))
	}
	if !VerifyDispatchKey("code-17", secret, key) {
		t.Fatal("valid key rejected")
	}
	if VerifyDispatchKey("code-18", secret, key) {
		t.Fatal("key accepted for wrong code id")
	}
	if VerifyDispatchKey("code-17", []byte("wrong secret"), key) {
		t.Fatal("key accepted with wrong secret")
	}
	if VerifyDispatchKey("code-17", secret, key[:31]) {
		t.Fatal("truncated key accepted")
	}
	// Determinism.
	if DispatchKey("code-17", secret) != key {
		t.Fatal("DispatchKey not deterministic")
	}
	// Different ids produce different keys.
	if DispatchKey("code-18", secret) == key {
		t.Fatal("distinct code ids collide")
	}
}

func TestQuickSealOpen(t *testing.T) {
	kp := keyPair(t)
	pk := kp.Public()
	f := func(msg []byte) bool {
		body, err := AppendSeal(nil, pk, msg)
		if err != nil {
			return false
		}
		got, err := AppendOpen(nil, kp, body)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSeal and BenchmarkOpen time the resumed path (one key, one
// session); the /full variants force a new session per envelope.
func BenchmarkSeal(b *testing.B) {
	kp := keyPair(b)
	msg := []byte(strings.Repeat("x", 4096))
	for _, full := range []bool{false, true} {
		name := "resumed"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			pk := kp.Public()
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if full {
					pk = kp.Public()
				}
				var err error
				if buf, err = AppendSeal(buf[:0], pk, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOpen(b *testing.B) {
	kp := keyPair(b)
	body := mustSeal(b, kp.Public(), []byte(strings.Repeat("x", 4096)))
	for _, full := range []bool{false, true} {
		name := "resumed"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			open := kp
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if full {
					open = KeyPairFromRSA(kp.priv) // cold table
				}
				var err error
				if buf, err = AppendOpen(buf[:0], open, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
