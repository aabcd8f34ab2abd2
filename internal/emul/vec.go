// Package emul implements SUIT's instruction emulation (§3.4): when a
// disabled instruction traps, the OS can run a software replacement in
// user space instead of switching DVFS curves. The paper prescribes
// non-vectorised alternatives for the SIMD instructions and a
// side-channel-resilient (table-free, constant-time) AES implementation
// for AESENC. This package holds the constant-time AES replacement, which
// the security experiments execute, and the cost model the simulator
// charges for every emulation (§5.3 call delays, per-instruction cycle
// counts). The scalar SIMD replacements live in the package's tests,
// which execute one for every faultable opcode.
package emul

// Vec128 is a 128-bit SSE register value; Lo holds bits 63:0.
type Vec128 struct {
	Lo, Hi uint64
}

// Bytes returns the 16 bytes little-endian (byte 0 = bits 7:0 of Lo).
func (v Vec128) Bytes() [16]byte {
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v.Lo >> (8 * i))
		b[i+8] = byte(v.Hi >> (8 * i))
	}
	return b
}

// FromBytes packs 16 little-endian bytes.
func FromBytes(b [16]byte) Vec128 {
	var v Vec128
	for i := 7; i >= 0; i-- {
		v.Lo = v.Lo<<8 | uint64(b[i])
		v.Hi = v.Hi<<8 | uint64(b[i+8])
	}
	return v
}

// VXOR emulates PXOR/VPXOR: bitwise xor, the AddRoundKey step of the
// AES emulation.
func VXOR(a, b Vec128) Vec128 { return Vec128{a.Lo ^ b.Lo, a.Hi ^ b.Hi} }
