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
// limit rotates them, and a KeyPair remembers session id → session key
// in a bounded table, the id being SHA-256(wrap)[:16]. Only a session's
// first envelope pays the RSA private-key operation. Once the receiver
// has accepted an envelope of the session (PublicKey.Accepted), later
// envelopes carry the 16-byte id in place of the wrap; an id the table
// does not hold is ErrUnknownSession, and the sender re-sends with the
// wrap (AppendSealWrapped).
//
// The package also derives the per-dispatch unique key of §3.2: "The
// Agent Dispatcher will ... generate a unique key from the assigned
// code id", which the gateway's Agent Creator validates before
// generating agent classes.
package pisec

import (
	"bytes"
	"context"
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
	"io"
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
	// ErrUnknownSession means an envelope named its session by id and the
	// receiver does not hold that session (evicted, or a restarted
	// receiver): the sender re-sends with the wrapped key.
	ErrUnknownSession = errors.New("pisec: unknown session id, re-send with the wrapped key")
)

// Session limits: constants, not options — there is one sealed path.
const (
	// sessionKeySize is the AES-256 key every sender wraps.
	sessionKeySize = 32
	// sessionIDSize is the key field of an envelope that names its
	// session instead of carrying the wrap: a 128-bit SHA-256 prefix.
	sessionIDSize = 16
	// sealSessionUses rotates a sender's key after this many envelopes:
	// at 1024 the RSA work is under 0.1% of a session's cost, and below
	// a few hundred the saving starts to erode.
	sealSessionUses = 1024
	// sealSessionAge rotates a key this old however little it was used,
	// bounding how long one key protects an idle device's uploads.
	sealSessionAge = 15 * time.Minute
	// openSessionCap bounds the receiver's table: 4096 entries of ~64 B
	// (id, key, map slot) is ~256 KiB per KeyPair.
	openSessionCap = 4096
)

// sessionID names a session in the receiver's table and, once the
// receiver has accepted the session, on the wire.
type sessionID = [sessionIDSize]byte

// idOf names the session wrapped starts. Anyone who saw the wrap can
// compute it, so it authenticates nothing: it only selects a table entry.
func idOf(wrapped []byte) sessionID {
	sum := sha256.Sum256(wrapped)
	return sessionID(sum[:sessionIDSize])
}

// KeyPair is a gateway identity: an RSA private key, accessors for the
// public half, and the table that lets a resumed envelope skip RSA.
type KeyPair struct {
	priv *rsa.PrivateKey

	mu       sync.Mutex
	sessions map[sessionID][sessionKeySize]byte

	full, resumed, unknown atomic.Uint64
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

	mu       sync.Mutex
	block    cipher.Block // AES-256 under the current session key; nil before the first seal
	wrapped  []byte       // that key's RSA-OAEP wrap; never mutated
	id       []byte       // idOf(wrapped); never mutated
	accepted bool         // the receiver has opened an envelope of this session
	uses     int
	born     time.Time
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
func digestParts(keyField, iv, ciphertext []byte) [md5.Size]byte {
	h := md5.New()
	h.Write(envelopeMagicBytes)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(keyField)))
	h.Write(n[:])
	h.Write(keyField)
	h.Write(iv)
	h.Write(ciphertext)
	var out [md5.Size]byte
	h.Sum(out[:0])
	return out
}

// envelopeRef parses the binary envelope form — magic, u16 key-field
// length, key field (the wrapped key or a session id), 16-byte IV,
// 16-byte digest, ciphertext to end — without copying: the returned
// slices alias b, so a dispatch decode never duplicates the key field
// or ciphertext.
func envelopeRef(b []byte) (keyField, iv, digest, ciphertext []byte, err error) {
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
	keyField = b[p : p+klen]
	p += klen
	iv = b[p : p+aes.BlockSize]
	p += aes.BlockSize
	digest = b[p : p+md5.Size]
	p += md5.Size
	return keyField, iv, digest, b[p:], nil
}

// session returns the cipher and key field the next envelope uses — the
// session id once the receiver has accepted the session, unless wrap
// asks for the wrapped key — starting a new session on first use and at
// the use or age limit.
func (pk *PublicKey) session(now time.Time, wrap bool) (cipher.Block, []byte, error) {
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
		id := idOf(wrapped)
		pk.block, pk.wrapped, pk.id, pk.accepted, pk.uses, pk.born = block, wrapped, id[:], false, 0, now
	}
	pk.uses++
	if pk.accepted && !wrap {
		return pk.block, pk.id, nil
	}
	return pk.block, pk.wrapped, nil
}

// Accepted records that the receiver opened envelope, one sealed through
// pk. Once it has opened one carrying the current session's wrapped key,
// later envelopes name the session by id. An envelope of an earlier
// session, or one that already carried the id, changes nothing.
func (pk *PublicKey) Accepted(envelope []byte) {
	keyField, _, _, _, err := envelopeRef(envelope)
	if err != nil {
		return
	}
	pk.mu.Lock()
	defer pk.mu.Unlock()
	if pk.wrapped != nil && bytes.Equal(keyField, pk.wrapped) {
		pk.accepted = true
	}
}

// AppendSeal seals plaintext to pk per Figure 7 and appends the
// marshalled envelope to dst. Envelopes sealed through one PublicKey
// share a session key until it rotates; each gets a fresh random IV.
// The key field is the wrapped session key until pk.Accepted has seen
// the receiver open one, and the 16-byte session id after that.
func AppendSeal(dst []byte, pk *PublicKey, plaintext []byte) ([]byte, error) {
	return pk.appendSeal(dst, plaintext, time.Now(), false)
}

// AppendSealWrapped is AppendSeal carrying the current session's wrapped
// key whatever the receiver has accepted: the re-send of an envelope
// refused with ErrUnknownSession. It changes nothing a concurrent
// AppendSeal reads.
func AppendSealWrapped(dst []byte, pk *PublicKey, plaintext []byte) ([]byte, error) {
	return pk.appendSeal(dst, plaintext, time.Now(), true)
}

// appendSeal is AppendSeal at a given instant (tests inject the clock).
func (pk *PublicKey) appendSeal(dst, plaintext []byte, now time.Time, wrap bool) ([]byte, error) {
	block, keyField, err := pk.session(now, wrap)
	if err != nil {
		return dst, err
	}
	var iv [aes.BlockSize]byte
	if _, err := rand.Read(iv[:]); err != nil {
		return dst, fmt.Errorf("pisec: iv: %w", err)
	}
	dst = append(dst, envelopeMagic...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(keyField)))
	dst = append(dst, keyField...)
	dst = append(dst, iv[:]...)
	digestAt := len(dst)
	var zero [md5.Size]byte
	dst = append(dst, zero[:]...)
	ctAt := len(dst)
	dst = append(dst, plaintext...)
	cipher.NewCTR(block, iv[:]).XORKeyStream(dst[ctAt:], dst[ctAt:])
	sum := digestParts(keyField, iv[:], dst[ctAt:])
	copy(dst[digestAt:], sum[:])
	return dst, nil
}

// sessionKey recovers the key the envelope's key field names, from the
// table if its session is held. Otherwise a session id is
// ErrUnknownSession — no RSA, no insert — and a wrapped key goes to the
// RSA private-key operation, whose result (only a successful one) is
// remembered under the session's id, evicting an arbitrary entry at
// capacity. Callers verify the envelope digest first.
func (kp *KeyPair) sessionKey(keyField []byte) (key [sessionKeySize]byte, err error) {
	byID := len(keyField) == sessionIDSize
	var id sessionID
	if byID {
		id = sessionID(keyField)
	} else {
		id = idOf(keyField)
	}
	kp.mu.Lock()
	key, ok := kp.sessions[id]
	kp.mu.Unlock()
	switch {
	case ok:
		kp.resumed.Add(1)
		return key, nil
	case byID:
		kp.unknown.Add(1)
		return key, ErrUnknownSession
	}
	kp.full.Add(1)
	raw, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, kp.priv, keyField, envelopeMagicBytes)
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
		kp.sessions = make(map[sessionID][sessionKeySize]byte)
	}
	// A concurrent open of the same session may have inserted it already.
	if _, ok := kp.sessions[id]; !ok && len(kp.sessions) >= openSessionCap {
		for victim := range kp.sessions {
			delete(kp.sessions, victim)
			break
		}
	}
	kp.sessions[id] = key
	return key, nil
}

// UnsealStats reports how many opens ran the RSA private-key operation
// (full), found their key in the table (resumed) or named a session the
// table does not hold (unknown: ErrUnknownSession), and the table's
// occupancy.
func (kp *KeyPair) UnsealStats() (full, resumed, unknown uint64, sessions int) {
	kp.mu.Lock()
	sessions = len(kp.sessions)
	kp.mu.Unlock()
	return kp.full.Load(), kp.resumed.Load(), kp.unknown.Load(), sessions
}

// AppendOpen verifies and decrypts a marshalled envelope, appending the
// plaintext to dst (returned unextended on error); nothing else of body
// is copied. A key field that is neither one modulus long (the wrapped
// key) nor a session id is refused before any hashing, and the MD5 check
// of Figure 7 runs before the session table is consulted. A session id
// is only looked up: it never reaches the RSA operation.
func AppendOpen(dst []byte, kp *KeyPair, body []byte) ([]byte, error) {
	keyField, iv, digest, ct, err := envelopeRef(body)
	if err != nil {
		return dst, err
	}
	if len(keyField) != kp.priv.Size() && len(keyField) != sessionIDSize {
		return dst, ErrMalformed
	}
	sum := digestParts(keyField, iv, ct)
	if string(sum[:]) != string(digest) {
		return dst, ErrDigestMismatch
	}
	key, err := kp.sessionKey(keyField)
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

// entropyKey carries WithEntropy's reader on a context.
type entropyKey struct{}

// WithEntropy returns ctx carrying r as the source of the secrets and
// nonces minted on its behalf (NewSubscriptionSecret, wire.NewNonce).
// A simulated world passes a reader seeded from its seed, so a journey
// replays byte for byte; nothing else sets one, because the secrets a
// seeded reader mints are predictable.
func WithEntropy(ctx context.Context, r io.Reader) context.Context {
	return context.WithValue(ctx, entropyKey{}, r)
}

// Entropy returns ctx's entropy source: crypto/rand.Reader unless
// WithEntropy set another.
func Entropy(ctx context.Context) io.Reader {
	if r, ok := ctx.Value(entropyKey{}).(io.Reader); ok {
		return r
	}
	return rand.Reader
}

// NewSubscriptionSecret returns a fresh random secret issued alongside
// a downloaded code package, read from ctx's Entropy.
func NewSubscriptionSecret(ctx context.Context) ([]byte, error) {
	s := make([]byte, 16)
	if _, err := io.ReadFull(Entropy(ctx), s); err != nil {
		return nil, fmt.Errorf("pisec: subscription secret: %w", err)
	}
	return s, nil
}
