package emul

// AESENC emulation (§3.4): the paper emulates AESENC with a side-channel-
// resilient AES implementation. AESENC here is table-free and constant-
// time: SubBytes is computed algebraically (GF(2^8) inversion by a fixed
// square-and-multiply chain plus the affine transform) with branch-free
// arithmetic and no secret-dependent memory accesses. The tests hold each
// round to aesencRef, the S-box-table semantics the hardware instruction
// computes.
//
// The full AES-128 encryption assembled from these rounds is cross-checked
// against crypto/aes in the tests, which validates round semantics,
// ShiftRows/MixColumns ordering and key expansion end to end.
//
// AESENC semantics (Intel SDM):
//
//	state ← MixColumns(SubBytes(ShiftRows(state))) ⊕ roundKey
//
// AESENCLAST omits MixColumns. The state is the usual AES column-major
// layout: byte i of the block is state row i mod 4, column i / 4.

// AESENC computes one AES encryption round using the constant-time
// emulation.
func AESENC(state, roundKey Vec128) Vec128 {
	b := state.Bytes()
	b = shiftRows(b)
	for i := range b {
		b[i] = sboxCT(b[i])
	}
	b = mixColumns(b)
	out := FromBytes(b)
	return VXOR(out, roundKey)
}

// AESENCLAST computes the final AES round (no MixColumns).
func AESENCLAST(state, roundKey Vec128) Vec128 {
	b := state.Bytes()
	b = shiftRows(b)
	for i := range b {
		b[i] = sboxCT(b[i])
	}
	out := FromBytes(b)
	return VXOR(out, roundKey)
}

// shiftRows rotates row r of the column-major state left by r positions.
func shiftRows(b [16]byte) [16]byte {
	var out [16]byte
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			out[4*c+r] = b[4*((c+r)%4)+r]
		}
	}
	return out
}

// xtime multiplies by x in GF(2^8) mod x⁸+x⁴+x³+x+1, branch-free.
func xtime(a byte) byte {
	return a<<1 ^ (0x1b & (0 - a>>7))
}

// mixColumns applies the AES MixColumns matrix to each column.
func mixColumns(b [16]byte) [16]byte {
	var out [16]byte
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := b[4*c], b[4*c+1], b[4*c+2], b[4*c+3]
		out[4*c] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
		out[4*c+1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
		out[4*c+2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
		out[4*c+3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
	}
	return out
}

// gmul multiplies in GF(2^8) with a branch-free shift-and-xor loop.
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		p ^= a & (0 - (b >> i & 1))
		a = xtime(a)
	}
	return p
}

// sboxCT computes the AES S-box without table lookups: the GF(2^8)
// multiplicative inverse via the fixed exponent chain x^254, followed by
// the affine transform. Every step is a fixed sequence of arithmetic
// operations — no secret-dependent branches or loads.
func sboxCT(x byte) byte {
	// x^254 by square-and-multiply over the fixed exponent 0b11111110.
	inv := byte(1)
	for bit := 7; bit >= 0; bit-- {
		inv = gmul(inv, inv)
		if 254>>bit&1 == 1 { // exponent bits are public constants
			inv = gmul(inv, x)
		}
	}
	// Affine transform: s = inv ⊕ rotl(inv,1) ⊕ rotl(inv,2) ⊕ rotl(inv,3)
	// ⊕ rotl(inv,4) ⊕ 0x63.
	rotl := func(v byte, n uint) byte { return v<<n | v>>(8-n) }
	return inv ^ rotl(inv, 1) ^ rotl(inv, 2) ^ rotl(inv, 3) ^ rotl(inv, 4) ^ 0x63
}

// ExpandKeyAES128 performs AES-128 key expansion, returning the 11 round
// keys. It uses the constant-time S-box (the key is secret too).
func ExpandKeyAES128(key [16]byte) [11]Vec128 {
	var w [44]uint32
	for i := 0; i < 4; i++ {
		w[i] = uint32(key[4*i]) | uint32(key[4*i+1])<<8 | uint32(key[4*i+2])<<16 | uint32(key[4*i+3])<<24
	}
	rcon := byte(1)
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			// RotWord then SubWord on little-endian packed bytes.
			t = t>>8 | t<<24
			t = uint32(sboxCT(byte(t))) |
				uint32(sboxCT(byte(t>>8)))<<8 |
				uint32(sboxCT(byte(t>>16)))<<16 |
				uint32(sboxCT(byte(t>>24)))<<24
			t ^= uint32(rcon)
			rcon = xtime(rcon)
		}
		w[i] = w[i-4] ^ t
	}
	var out [11]Vec128
	for r := 0; r < 11; r++ {
		var b [16]byte
		for c := 0; c < 4; c++ {
			word := w[4*r+c]
			b[4*c] = byte(word)
			b[4*c+1] = byte(word >> 8)
			b[4*c+2] = byte(word >> 16)
			b[4*c+3] = byte(word >> 24)
		}
		out[r] = FromBytes(b)
	}
	return out
}

// EncryptAES128 encrypts one block with AES-128 assembled from the
// emulated rounds: AddRoundKey, 9× AESENC, AESENCLAST. Used to validate
// the emulation against crypto/aes.
func EncryptAES128(key, block [16]byte) [16]byte {
	rk := ExpandKeyAES128(key)
	state := VXOR(FromBytes(block), rk[0])
	for r := 1; r <= 9; r++ {
		state = AESENC(state, rk[r])
	}
	state = AESENCLAST(state, rk[10])
	return state.Bytes()
}
