package emul

import (
	"testing"
)

// These microbenchmarks measure the actual software replacements — the
// real-world counterpart of the cycle counts in DefaultCycles. On a
// ~3 GHz host, ns/op × 3 gives a rough cycle count to sanity-check the
// cost model against.

func BenchmarkAESENCConstantTime(b *testing.B) {
	state := Vec128{0x0123456789abcdef, 0xfedcba9876543210}
	key := Vec128{0x1111111111111111, 0x2222222222222222}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		state = AESENC(state, key)
	}
	sinkVec = state
}

func BenchmarkAESENCReference(b *testing.B) {
	state := Vec128{0x0123456789abcdef, 0xfedcba9876543210}
	key := Vec128{0x1111111111111111, 0x2222222222222222}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		state = aesencRef(state, key)
	}
	sinkVec = state
}

func BenchmarkVPCLMULQDQ(b *testing.B) {
	x := Vec128{0xdeadbeefcafebabe, 0x0123456789abcdef}
	y := Vec128{0x5555555555555555, 0xaaaaaaaaaaaaaaaa}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = VPCLMULQDQ(x, y, 0x00)
	}
	sinkVec = x
}

func BenchmarkEncryptAES128Block(b *testing.B) {
	var key, block [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		block = EncryptAES128(key, block)
	}
	sinkByte = block[0]
}

var (
	sinkVec  Vec128
	sinkByte byte
)
