package emul

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

// AES-GCM assembled entirely from the emulated instruction set: AESENC /
// AESENCLAST for the counter-mode keystream and VPCLMULQDQ for GHASH —
// the operation inside nginx's TLS records, built from the very
// replacements the OS runs under the emulation strategy. Matching
// crypto/cipher's GCM byte for byte is a functional check of both
// production emulations at once.
//
// The GHASH field is GF(2¹²⁸) with the polynomial x¹²⁸ + x⁷ + x² + x + 1
// and the bit-reflected element encoding of the GCM specification.

// gcmBlock is a 16-byte big-endian GCM field element.
type gcmBlock [16]byte

// toPoly converts a GCM block to a plain polynomial over GF(2): per the
// GCM specification, the coefficient of xⁱ is bit 7−(i mod 8) of byte
// i/8. The result is little-endian: lo holds x⁰..x⁶³.
func toPoly(b gcmBlock) (lo, hi uint64) {
	for i := 0; i < 128; i++ {
		bit := uint64(b[i/8]>>(7-uint(i%8))) & 1
		if i < 64 {
			lo |= bit << uint(i)
		} else {
			hi |= bit << uint(i-64)
		}
	}
	return
}

// fromPoly is the inverse of toPoly.
func fromPoly(lo, hi uint64) gcmBlock {
	var b gcmBlock
	for i := 0; i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = lo >> uint(i) & 1
		} else {
			bit = hi >> uint(i-64) & 1
		}
		b[i/8] |= byte(bit) << (7 - uint(i%8))
	}
	return b
}

// ghashMul multiplies two GCM field elements using the carry-less multiply
// emulation (VPCLMULQDQ), as AES-NI GCM code does: a 128×128 carry-less
// product from four 64×64 CLMULs, then reduction modulo the GCM polynomial
// g(x) = x¹²⁸ + x⁷ + x² + x + 1.
func ghashMul(x, y gcmBlock) gcmBlock {
	x0, x1 := toPoly(x)
	y0, y1 := toPoly(y)

	a := Vec128{Lo: x0, Hi: x1}
	b := Vec128{Lo: y0, Hi: y1}
	lo := VPCLMULQDQ(a, b, 0x00)   // x0·y0
	hi := VPCLMULQDQ(a, b, 0x11)   // x1·y1
	mid1 := VPCLMULQDQ(a, b, 0x01) // x1·y0
	mid2 := VPCLMULQDQ(a, b, 0x10) // x0·y1
	mid := VXOR(mid1, mid2)

	// 256-bit product: r0 + r1·x⁶⁴ + r2·x¹²⁸ + r3·x¹⁹².
	r0 := lo.Lo
	r1 := lo.Hi ^ mid.Lo
	r2 := hi.Lo ^ mid.Hi
	r3 := hi.Hi

	// Fold the upper half: x¹²⁸ ≡ x⁷ + x² + x + 1 (mod g).
	// r3·x¹⁹² = (r3·x⁶⁴)·x¹²⁸ lands at bit offsets 64+{0,1,2,7}.
	r1 ^= r3 ^ r3<<1 ^ r3<<2 ^ r3<<7
	r2 ^= r3>>63 ^ r3>>62 ^ r3>>57
	// Then the (updated) r2·x¹²⁸ lands at bit offsets {0,1,2,7}.
	r0 ^= r2 ^ r2<<1 ^ r2<<2 ^ r2<<7
	r1 ^= r2>>63 ^ r2>>62 ^ r2>>57

	return fromPoly(r0, r1)
}

// ghash computes GHASH_H over the given data (already padded to blocks).
func ghash(h gcmBlock, blocks []gcmBlock) gcmBlock {
	var y gcmBlock
	for _, b := range blocks {
		for i := range y {
			y[i] ^= b[i]
		}
		y = ghashMul(y, h)
	}
	return y
}

// gcmBlocksOf pads data to 16-byte blocks.
func gcmBlocksOf(data []byte) []gcmBlock {
	n := (len(data) + 15) / 16
	out := make([]gcmBlock, n)
	for i := 0; i < n; i++ {
		copy(out[i][:], data[i*16:min(len(data), (i+1)*16)])
	}
	return out
}

// SealAESGCM encrypts and authenticates plaintext with AES-128-GCM using
// a 96-bit nonce, returning ciphertext||tag — the operation behind every
// TLS record in the nginx workload. additional is the AAD.
func SealAESGCM(key [16]byte, nonce [12]byte, plaintext, additional []byte) ([]byte, error) {
	rk := ExpandKeyAES128(key)
	encBlock := func(in [16]byte) [16]byte {
		s := VXOR(FromBytes(in), rk[0])
		for r := 1; r <= 9; r++ {
			s = AESENC(s, rk[r])
		}
		return AESENCLAST(s, rk[10]).Bytes()
	}

	// H = E(K, 0¹²⁸); J0 = nonce || 0x00000001.
	h := gcmBlock(encBlock([16]byte{}))
	var j0 [16]byte
	copy(j0[:], nonce[:])
	j0[15] = 1

	// CTR encryption starting at J0+1.
	ct := make([]byte, len(plaintext))
	ctr := j0
	for i := 0; i < len(plaintext); i += 16 {
		incCounter(&ctr)
		ks := encBlock(ctr)
		for j := i; j < min(i+16, len(plaintext)); j++ {
			ct[j] = plaintext[j] ^ ks[j-i]
		}
	}

	// Tag = GHASH(AAD || CT || lengths) ⊕ E(K, J0).
	blocks := gcmBlocksOf(additional)
	blocks = append(blocks, gcmBlocksOf(ct)...)
	var lens gcmBlock
	binary.BigEndian.PutUint64(lens[0:8], uint64(len(additional))*8)
	binary.BigEndian.PutUint64(lens[8:16], uint64(len(ct))*8)
	blocks = append(blocks, lens)
	s := ghash(h, blocks)
	ek := encBlock(j0)
	tag := make([]byte, 16)
	for i := range tag {
		tag[i] = s[i] ^ ek[i]
	}
	return append(ct, tag...), nil
}

// OpenAESGCM authenticates and decrypts ciphertext||tag produced by
// SealAESGCM, in constant-time tag comparison.
func OpenAESGCM(key [16]byte, nonce [12]byte, sealed, additional []byte) ([]byte, error) {
	if len(sealed) < 16 {
		return nil, errors.New("emul: sealed input shorter than the tag")
	}
	ct, tag := sealed[:len(sealed)-16], sealed[len(sealed)-16:]
	rk := ExpandKeyAES128(key)
	encBlock := func(in [16]byte) [16]byte {
		s := VXOR(FromBytes(in), rk[0])
		for r := 1; r <= 9; r++ {
			s = AESENC(s, rk[r])
		}
		return AESENCLAST(s, rk[10]).Bytes()
	}
	h := gcmBlock(encBlock([16]byte{}))
	var j0 [16]byte
	copy(j0[:], nonce[:])
	j0[15] = 1
	blocks := gcmBlocksOf(additional)
	blocks = append(blocks, gcmBlocksOf(ct)...)
	var lens gcmBlock
	binary.BigEndian.PutUint64(lens[0:8], uint64(len(additional))*8)
	binary.BigEndian.PutUint64(lens[8:16], uint64(len(ct))*8)
	blocks = append(blocks, lens)
	s := ghash(h, blocks)
	ek := encBlock(j0)
	var diff byte
	for i := 0; i < 16; i++ {
		diff |= tag[i] ^ (s[i] ^ ek[i])
	}
	if diff != 0 {
		return nil, errors.New("emul: GCM tag mismatch")
	}
	// Decrypt.
	pt := make([]byte, len(ct))
	ctr := j0
	for i := 0; i < len(ct); i += 16 {
		incCounter(&ctr)
		ks := encBlock(ctr)
		for j := i; j < min(i+16, len(ct)); j++ {
			pt[j] = ct[j] ^ ks[j-i]
		}
	}
	return pt, nil
}

// incCounter increments the 32-bit big-endian counter in the last word.
func incCounter(b *[16]byte) {
	c := binary.BigEndian.Uint32(b[12:16])
	binary.BigEndian.PutUint32(b[12:16], c+1)
}

func stdlibSeal(t testing.TB, key [16]byte, nonce [12]byte, pt, aad []byte) []byte {
	t.Helper()
	c, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	g, err := cipher.NewGCM(c)
	if err != nil {
		t.Fatal(err)
	}
	return g.Seal(nil, nonce[:], pt, aad)
}

func TestGhashMulFieldProperties(t *testing.T) {
	// The GCM "one" element is 0x80 followed by zeros (coefficient of x⁰
	// is the MSB of byte 0).
	var one gcmBlock
	one[0] = 0x80
	prop := func(raw [16]byte, raw2 [16]byte) bool {
		a, b := gcmBlock(raw), gcmBlock(raw2)
		// Identity and commutativity.
		if ghashMul(a, one) != a {
			return false
		}
		return ghashMul(a, b) == ghashMul(b, a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// Zero annihilates.
	var zero gcmBlock
	if ghashMul(gcmBlock{0xde, 0xad}, zero) != zero {
		t.Error("multiplication by zero not zero")
	}
}

func TestPolyRoundTrip(t *testing.T) {
	prop := func(raw [16]byte) bool {
		lo, hi := toPoly(gcmBlock(raw))
		return fromPoly(lo, hi) == gcmBlock(raw)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSealMatchesStdlibGCM(t *testing.T) {
	key := [16]byte{0xfe, 0xff, 0xe9, 0x92, 0x86, 0x65, 0x73, 0x1c, 0x6d, 0x6a, 0x8f, 0x94, 0x67, 0x30, 0x83, 0x08}
	nonce := [12]byte{0xca, 0xfe, 0xba, 0xbe, 0xfa, 0xce, 0xdb, 0xad, 0xde, 0xca, 0xf8, 0x88}
	for _, tc := range []struct {
		pt, aad []byte
	}{
		{nil, nil},
		{[]byte("hello SUIT"), nil},
		{bytes.Repeat([]byte{0x42}, 64), []byte("header")},
		{bytes.Repeat([]byte{0x01}, 61), []byte("odd-length aad!")}, // non-block-aligned
		{make([]byte, 257), nil},
	} {
		got, err := SealAESGCM(key, nonce, tc.pt, tc.aad)
		if err != nil {
			t.Fatal(err)
		}
		want := stdlibSeal(t, key, nonce, tc.pt, tc.aad)
		if !bytes.Equal(got, want) {
			t.Errorf("seal(%d bytes pt, %d aad):\n got %x\nwant %x", len(tc.pt), len(tc.aad), got, want)
		}
	}
}

func TestSealMatchesStdlibProperty(t *testing.T) {
	prop := func(key [16]byte, nonce [12]byte, pt, aad []byte) bool {
		if len(pt) > 512 {
			pt = pt[:512]
		}
		got, err := SealAESGCM(key, nonce, pt, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, stdlibSeal(t, key, nonce, pt, aad))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOpenRoundTripAndAuth(t *testing.T) {
	key := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	nonce := [12]byte{9, 9, 9}
	pt := []byte("the efficient curve is only legal with the faultable set disabled")
	aad := []byte("record header")
	sealed, err := SealAESGCM(key, nonce, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenAESGCM(key, nonce, sealed, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip: %q", got)
	}
	// Any single bit flip must fail authentication.
	for _, pos := range []int{0, len(sealed) / 2, len(sealed) - 1} {
		tampered := append([]byte(nil), sealed...)
		tampered[pos] ^= 0x40
		if _, err := OpenAESGCM(key, nonce, tampered, aad); err == nil {
			t.Errorf("tampering at %d went undetected", pos)
		}
	}
	// Wrong AAD fails too.
	if _, err := OpenAESGCM(key, nonce, sealed, []byte("other")); err == nil {
		t.Error("wrong AAD accepted")
	}
	// Truncated input rejected.
	if _, err := OpenAESGCM(key, nonce, sealed[:10], aad); err == nil {
		t.Error("short input accepted")
	}
}
