// Package pisec implements the PDAgent security model of the paper's
// Figure 7: the handheld encrypts the Packed Information with the
// gateway's public key ("Asymmetric Key Encryption"), and the gateway
// uses MD5 to verify the Packed Information before decrypting it with
// its private key.
//
// Like the paper, the asymmetric step is RSA; because RSA alone cannot
// encrypt multi-kilobyte PIs, AppendSeal uses the standard hybrid
// scheme: an AES-CTR session key is RSA-OAEP-wrapped and carried
// alongside the ciphertext. The MD5 digest covers the whole envelope
// body, which reproduces the paper's "verify whether the Packed
// Information is valid" check. (MD5 is retained for fidelity to the 2004
// design; it is an integrity tag here, not a collision-resistant MAC.)
//
// The session key lasts a device session, not one message: a PublicKey
// reuses its key and wrap (fresh IV per envelope) until a use or age
// limit rotates them, and a KeyPair remembers wrapped-key bytes →
// session key, a pure function of its own private key, in a bounded
// table. Only a session's first envelope pays the RSA private-key
// operation; nothing is negotiated, so a table miss is a full unseal.
//
// The package also derives the per-dispatch unique key of §3.2: "The
// Agent Dispatcher will ... generate a unique key from the assigned
// code id", which the gateway's Agent Creator validates before
// generating agent classes.
package pisec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/md5"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultKeyBits is the RSA modulus size used by gateways. 2048 is the
// modern floor; the paper's era used 1024.
const DefaultKeyBits = 2048

// Errors returned by envelope operations.
var (
	// ErrDigestMismatch means the MD5 verification of Figure 7 failed:
	// the PI was altered in transit.
	ErrDigestMismatch = errors.New("pisec: MD5 digest mismatch, packed information altered")
	// ErrMalformed means the envelope could not be parsed at all.
	ErrMalformed = errors.New("pisec: malformed envelope")
)

// Session limits: constants, not options — there is one sealed path.
const (
	// sessionKeySize is the AES-256 key every sender wraps.
	sessionKeySize = 32
	// sealSessionUses rotates a sender's key after this many envelopes:
	// at 1024 the RSA work is under 0.1% of a session's cost, and below
	// a few hundred the saving starts to erode.
	sealSessionUses = 1024
	// sealSessionAge rotates a key this old however little it was used,
	// bounding how long one key protects an idle device's uploads.
	sealSessionAge = 15 * time.Minute
	// openSessionCap bounds the receiver's table: 4096 entries of ~350 B
	// (RSA-2048 wrap, key, map slot) is ~1.4 MiB per KeyPair.
	openSessionCap = 4096
)

// KeyPair is a gateway identity: an RSA private key, accessors for the
// public half, and the table that lets a resumed envelope skip RSA.
type KeyPair struct {
	priv *rsa.PrivateKey

	mu       sync.Mutex
	sessions map[string][sessionKeySize]byte // wrapped-key bytes -> session key

	full, resumed atomic.Uint64
}

// GenerateKeyPair creates a new RSA key pair with the given modulus
// size (use DefaultKeyBits).
func GenerateKeyPair(bits int) (*KeyPair, error) {
	priv, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("pisec: generating key pair: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// KeyPairFromRSA wraps an existing RSA private key as a gateway
// identity (fixed test and fuzz identities; production keys come from
// GenerateKeyPair).
func KeyPairFromRSA(priv *rsa.PrivateKey) *KeyPair { return &KeyPair{priv: priv} }

// Public returns the shareable public half.
func (kp *KeyPair) Public() *PublicKey { return &PublicKey{key: &kp.priv.PublicKey} }

// PublicKey is the gateway public key a device downloads at
// subscription time. It also carries the sender's half of the sealed
// session (in memory only), so one session is one PublicKey value.
type PublicKey struct {
	key *rsa.PublicKey

	mu      sync.Mutex
	block   cipher.Block // AES-256 under the current session key; nil before the first seal
	wrapped []byte       // that key's RSA-OAEP wrap, carried verbatim by every envelope; never mutated
	uses    int
	born    time.Time
}

// Marshal encodes the key as base64 PKIX DER for embedding in XML
// gateway lists.
func (pk *PublicKey) Marshal() (string, error) {
	der, err := x509.MarshalPKIXPublicKey(pk.key)
	if err != nil {
		return "", fmt.Errorf("pisec: marshalling public key: %w", err)
	}
	return base64.StdEncoding.EncodeToString(der), nil
}

// ParsePublicKey decodes a key produced by Marshal.
func ParsePublicKey(s string) (*PublicKey, error) {
	der, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("pisec: public key base64: %w", err)
	}
	k, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("pisec: parsing public key: %w", err)
	}
	rk, ok := k.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("pisec: public key is %T, want RSA", k)
	}
	return &PublicKey{key: rk}, nil
}

// Fingerprint returns a short hex identifier for the key (first 8 bytes
// of the SHA-256 of its DER form).
func (pk *PublicKey) Fingerprint() string {
	der, err := x509.MarshalPKIXPublicKey(pk.key)
	if err != nil {
		return "invalid"
	}
	sum := sha256.Sum256(der)
	return hex.EncodeToString(sum[:8])
}

const envelopeMagic = "PISEC1"

// envelopeMagicBytes avoids a string→[]byte conversion per digest.
var envelopeMagicBytes = []byte(envelopeMagic)

// digestParts is the envelope digest over everything except the digest
// itself.
func digestParts(wrapped, iv, ciphertext []byte) [md5.Size]byte {
	h := md5.New()
	h.Write(envelopeMagicBytes)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(wrapped)))
	h.Write(n[:])
	h.Write(wrapped)
	h.Write(iv)
	h.Write(ciphertext)
	var out [md5.Size]byte
	h.Sum(out[:0])
	return out
}

// envelopeRef parses the binary envelope form — magic, u16 wrapped-key
// length, wrapped key, 16-byte IV, 16-byte digest, ciphertext to end —
// without copying: the returned slices alias b, so a dispatch decode
// never duplicates the wrapped key or ciphertext.
func envelopeRef(b []byte) (wrapped, iv, digest, ciphertext []byte, err error) {
	min := len(envelopeMagic) + 2 + aes.BlockSize + md5.Size
	if len(b) < min || string(b[:len(envelopeMagic)]) != envelopeMagic {
		return nil, nil, nil, nil, ErrMalformed
	}
	p := len(envelopeMagic)
	klen := int(binary.BigEndian.Uint16(b[p : p+2]))
	p += 2
	if len(b) < p+klen+aes.BlockSize+md5.Size {
		return nil, nil, nil, nil, ErrMalformed
	}
	wrapped = b[p : p+klen]
	p += klen
	iv = b[p : p+aes.BlockSize]
	p += aes.BlockSize
	digest = b[p : p+md5.Size]
	p += md5.Size
	return wrapped, iv, digest, b[p:], nil
}

// session returns the cipher and wrapped key the next envelope uses,
// starting a new session on first use and at the use or age limit.
func (pk *PublicKey) session(now time.Time) (cipher.Block, []byte, error) {
	pk.mu.Lock()
	defer pk.mu.Unlock()
	if pk.block == nil || pk.uses >= sealSessionUses || now.Sub(pk.born) >= sealSessionAge {
		var key [sessionKeySize]byte
		if _, err := rand.Read(key[:]); err != nil {
			return nil, nil, fmt.Errorf("pisec: session key: %w", err)
		}
		wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pk.key, key[:], envelopeMagicBytes)
		if err != nil {
			return nil, nil, fmt.Errorf("pisec: wrapping session key: %w", err)
		}
		block, err := aes.NewCipher(key[:])
		if err != nil {
			return nil, nil, fmt.Errorf("pisec: cipher init: %w", err)
		}
		pk.block, pk.wrapped, pk.uses, pk.born = block, wrapped, 0, now
	}
	pk.uses++
	return pk.block, pk.wrapped, nil
}

// AppendSeal seals plaintext to pk per Figure 7 and appends the
// marshalled envelope to dst. Envelopes sealed through one PublicKey
// share a session key until it rotates; each gets a fresh random IV.
func AppendSeal(dst []byte, pk *PublicKey, plaintext []byte) ([]byte, error) {
	return pk.appendSeal(dst, plaintext, time.Now())
}

// appendSeal is AppendSeal at a given instant (tests inject the clock).
func (pk *PublicKey) appendSeal(dst, plaintext []byte, now time.Time) ([]byte, error) {
	block, wrapped, err := pk.session(now)
	if err != nil {
		return dst, err
	}
	var iv [aes.BlockSize]byte
	if _, err := rand.Read(iv[:]); err != nil {
		return dst, fmt.Errorf("pisec: iv: %w", err)
	}
	dst = append(dst, envelopeMagic...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(wrapped)))
	dst = append(dst, wrapped...)
	dst = append(dst, iv[:]...)
	digestAt := len(dst)
	var zero [md5.Size]byte
	dst = append(dst, zero[:]...)
	ctAt := len(dst)
	dst = append(dst, plaintext...)
	cipher.NewCTR(block, iv[:]).XORKeyStream(dst[ctAt:], dst[ctAt:])
	sum := digestParts(wrapped, iv[:], dst[ctAt:])
	copy(dst[digestAt:], sum[:])
	return dst, nil
}

// sessionKey recovers the key behind wrapped: from the table if these
// bytes were unwrapped before, else by the RSA private-key operation,
// whose result — only a successful one — is remembered, evicting an
// arbitrary entry at capacity. Callers verify the envelope digest first.
func (kp *KeyPair) sessionKey(wrapped []byte) (key [sessionKeySize]byte, err error) {
	kp.mu.Lock()
	key, ok := kp.sessions[string(wrapped)]
	kp.mu.Unlock()
	if ok {
		kp.resumed.Add(1)
		return key, nil
	}
	kp.full.Add(1)
	raw, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, kp.priv, wrapped, envelopeMagicBytes)
	if err != nil {
		return key, fmt.Errorf("pisec: unwrapping session key: %w", err)
	}
	if len(raw) != sessionKeySize {
		return key, fmt.Errorf("%w: %d-byte session key", ErrMalformed, len(raw))
	}
	copy(key[:], raw)

	kp.mu.Lock()
	defer kp.mu.Unlock()
	if kp.sessions == nil {
		kp.sessions = make(map[string][sessionKeySize]byte)
	}
	// A concurrent open of the same session may have inserted it already.
	if _, ok := kp.sessions[string(wrapped)]; !ok && len(kp.sessions) >= openSessionCap {
		for victim := range kp.sessions {
			delete(kp.sessions, victim)
			break
		}
	}
	kp.sessions[string(wrapped)] = key
	return key, nil
}

// UnsealStats reports how many opens ran the RSA private-key operation
// (full) or found their key in the table (resumed), and its occupancy.
func (kp *KeyPair) UnsealStats() (full, resumed uint64, sessions int) {
	kp.mu.Lock()
	sessions = len(kp.sessions)
	kp.mu.Unlock()
	return kp.full.Load(), kp.resumed.Load(), sessions
}

// AppendOpen verifies and decrypts a marshalled envelope, appending the
// plaintext to dst (returned unextended on error); nothing else of body
// is copied. A wrapped key not exactly one modulus long is refused
// before any hashing, and the MD5 check of Figure 7 runs before the
// session table is consulted.
func AppendOpen(dst []byte, kp *KeyPair, body []byte) ([]byte, error) {
	wrapped, iv, digest, ct, err := envelopeRef(body)
	if err != nil {
		return dst, err
	}
	if len(wrapped) != kp.priv.Size() {
		return dst, ErrMalformed
	}
	sum := digestParts(wrapped, iv, ct)
	if string(sum[:]) != string(digest) {
		return dst, ErrDigestMismatch
	}
	key, err := kp.sessionKey(wrapped)
	if err != nil {
		return dst, err
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return dst, fmt.Errorf("pisec: cipher init: %w", err)
	}
	base := len(dst)
	dst = append(dst, ct...)
	cipher.NewCTR(block, iv).XORKeyStream(dst[base:], dst[base:])
	return dst, nil
}

// DispatchKey derives the §3.2 "unique key from the assigned code id".
// The subscription secret is issued by the gateway when the code is
// downloaded; only a device holding it can produce a valid key for that
// code id. The construction is HMAC-style MD5 keyed with the secret
// (again MD5 for period fidelity).
func DispatchKey(codeID string, secret []byte) string {
	inner := md5.New()
	inner.Write(secret)
	inner.Write([]byte{0x36})
	inner.Write([]byte(codeID))
	is := inner.Sum(nil)
	outer := md5.New()
	outer.Write(secret)
	outer.Write([]byte{0x5c})
	outer.Write(is)
	return hex.EncodeToString(outer.Sum(nil))
}

// VerifyDispatchKey checks a presented key in constant time.
func VerifyDispatchKey(codeID string, secret []byte, presented string) bool {
	want := DispatchKey(codeID, secret)
	if len(want) != len(presented) {
		return false
	}
	var diff byte
	for i := 0; i < len(want); i++ {
		diff |= want[i] ^ presented[i]
	}
	return diff == 0
}

// NewSubscriptionSecret returns a fresh random secret issued alongside
// a downloaded code package.
func NewSubscriptionSecret() ([]byte, error) {
	s := make([]byte, 16)
	if _, err := rand.Read(s); err != nil {
		return nil, fmt.Errorf("pisec: subscription secret: %w", err)
	}
	return s, nil
}
