package emul

import (
	"bytes"
	"crypto/aes"
	"testing"
	"testing/quick"
)

// The decryption half of the AES-NI family, kept beside the tests as an
// oracle for the production AESENC emulation: decryption built from the
// inverse of each table-free step (sboxCT, shiftRows, mixColumns) must
// undo EncryptAES128 and agree with crypto/aes. Semantics per the Intel
// SDM:
//
//	AESDEC:     state ← InvMixColumns(InvSubBytes(InvShiftRows(state))) ⊕ rk
//	AESDECLAST: state ← InvSubBytes(InvShiftRows(state)) ⊕ rk
//
// The equivalent-inverse-cipher key schedule (InvMixColumns applied to the
// middle round keys) is handled by DecryptAES128.

// AESDEC computes one AES decryption round (equivalent inverse cipher)
// with the table-free constant-time inverse S-box.
func AESDEC(state, roundKey Vec128) Vec128 {
	b := state.Bytes()
	b = invShiftRows(b)
	for i := range b {
		b[i] = invSboxCT(b[i])
	}
	b = invMixColumns(b)
	return VXOR(FromBytes(b), roundKey)
}

// AESDECLAST computes the final AES decryption round (no InvMixColumns).
func AESDECLAST(state, roundKey Vec128) Vec128 {
	b := state.Bytes()
	b = invShiftRows(b)
	for i := range b {
		b[i] = invSboxCT(b[i])
	}
	return VXOR(FromBytes(b), roundKey)
}

// invShiftRows rotates row r of the column-major state right by r.
func invShiftRows(b [16]byte) [16]byte {
	var out [16]byte
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			out[4*((c+r)%4)+r] = b[4*c+r]
		}
	}
	return out
}

// invMixColumns applies the inverse MixColumns matrix (14 11 13 9).
func invMixColumns(b [16]byte) [16]byte {
	var out [16]byte
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := b[4*c], b[4*c+1], b[4*c+2], b[4*c+3]
		out[4*c] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9)
		out[4*c+1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13)
		out[4*c+2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11)
		out[4*c+3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14)
	}
	return out
}

// invSboxCT computes the inverse AES S-box without table lookups: the
// inverse affine transform followed by GF(2⁸) inversion (the forward
// S-box run backwards), with the same constant-time structure as sboxCT.
func invSboxCT(x byte) byte {
	// Inverse affine: s = rotl(x,1) ⊕ rotl(x,3) ⊕ rotl(x,6) ⊕ 0x05.
	rotl := func(v byte, n uint) byte { return v<<n | v>>(8-n) }
	y := rotl(x, 1) ^ rotl(x, 3) ^ rotl(x, 6) ^ 0x05
	// GF(2⁸) inversion via the fixed x^254 chain.
	inv := byte(1)
	for bit := 7; bit >= 0; bit-- {
		inv = gmul(inv, inv)
		if 254>>bit&1 == 1 {
			inv = gmul(inv, y)
		}
	}
	return inv
}

// DecryptAES128 decrypts one block with AES-128 assembled from the
// emulated rounds using the equivalent inverse cipher: the middle round
// keys pass through InvMixColumns, and the rounds run AESDEC/AESDECLAST.
func DecryptAES128(key, block [16]byte) [16]byte {
	rk := ExpandKeyAES128(key)
	state := VXOR(FromBytes(block), rk[10])
	for r := 9; r >= 1; r-- {
		dk := FromBytes(invMixColumns(rk[r].Bytes()))
		state = AESDEC(state, dk)
	}
	state = AESDECLAST(state, rk[0])
	return state.Bytes()
}

func TestInvSboxInvertsSbox(t *testing.T) {
	for x := 0; x < 256; x++ {
		if got := invSboxCT(sboxCT(byte(x))); got != byte(x) {
			t.Errorf("invSbox(sbox(%#02x)) = %#02x", x, got)
		}
		if got := sboxCT(invSboxCT(byte(x))); got != byte(x) {
			t.Errorf("sbox(invSbox(%#02x)) = %#02x", x, got)
		}
	}
}

func TestInvShiftRowsInvertsShiftRows(t *testing.T) {
	var in [16]byte
	for i := range in {
		in[i] = byte(i * 7)
	}
	if got := invShiftRows(shiftRows(in)); got != in {
		t.Errorf("invShiftRows(shiftRows(x)) = %x", got)
	}
	if got := shiftRows(invShiftRows(in)); got != in {
		t.Errorf("shiftRows(invShiftRows(x)) = %x", got)
	}
}

func TestInvMixColumnsInvertsMixColumns(t *testing.T) {
	prop := func(in [16]byte) bool {
		return invMixColumns(mixColumns(in)) == in && mixColumns(invMixColumns(in)) == in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecryptInvertsEncrypt(t *testing.T) {
	prop := func(key, block [16]byte) bool {
		return DecryptAES128(key, EncryptAES128(key, block)) == block
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecryptAES128AgainstStdlib(t *testing.T) {
	prop := func(key, ct [16]byte) bool {
		c, err := aes.NewCipher(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		c.Decrypt(want, ct[:])
		got := DecryptAES128(key, ct)
		return bytes.Equal(got[:], want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAESDECLASTDiffersFromAESDEC(t *testing.T) {
	state := Vec128{0x0123456789abcdef, 0xfedcba9876543210}
	key := Vec128{0x1111111111111111, 0x2222222222222222}
	if AESDEC(state, key) == AESDECLAST(state, key) {
		t.Error("AESDEC and AESDECLAST agree; InvMixColumns is missing")
	}
}
