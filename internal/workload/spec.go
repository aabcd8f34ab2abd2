package workload

import (
	"sync"

	"suit/internal/isa"
)

// The SPEC CPU2017 workload models. Calibration sources:
//
//   - Faultable-instruction episode spacing (BurstEvery): tuned so the fV
//     operating strategy reproduces the efficient-curve residency reported
//     in §6.4 — 97.1 % for 557.xz, 76.6 % for 502.gcc, 3.2 % for
//     520.omnetpp, ≈72.7 % on average — with the Fig 16 ordering across
//     the suite. 520.omnetpp and 521.wrf model faultable instructions
//     arriving continuously below the deadline spacing (they pin the CPU
//     to the conservative curve).
//   - IMULFraction: §6.1 — 0.99 % in 525.x264, 0.07 % average elsewhere.
//   - NoSIMD: Table 4 — measured for 508/521/538/554/525/548, remaining
//     benchmarks assigned so the suite means match the published
//     fprate/intrate rows (i9: −4.1 %/+0.5 %, 7700X: −5.9 %/+2.6 %).
//
// noSIMD values are relative score changes: −0.22 = 22 % slower.

func ns(intel, amd float64) map[CPUFamily]float64 {
	return map[CPUFamily]float64{Intel: intel, AMD: amd}
}

// SPEC returns models for all 23 SPEC CPU2017 rate benchmarks.
func SPEC() []Benchmark {
	return []Benchmark{
		// --- intrate ---
		{Name: "500.perlbench", Suite: SPECint, IPC: 1.6, IMULFraction: 0.0008,
			BurstEvery: 4e6, BurstLen: 90, BurstIntraGap: 1200, BurstSigma: 0.8,
			BurstOp: isa.OpVPCMP, NoSIMD: ns(-0.015, -0.004)},
		{Name: "502.gcc", Suite: SPECint, IPC: 1.0, IMULFraction: 0.0009,
			BurstEvery: 7.4e6, BurstLen: 110, BurstIntraGap: 1500, BurstSigma: 0.9,
			BurstOp: isa.OpVXOR, NoSIMD: ns(-0.012, -0.003)},
		{Name: "505.mcf", Suite: SPECint, IPC: 0.6, IMULFraction: 0.0005,
			BurstEvery: 26e6, BurstLen: 70, BurstIntraGap: 1000, BurstSigma: 0.8,
			BurstOp: isa.OpVPADDQ, NoSIMD: ns(-0.008, -0.002)},
		{Name: "520.omnetpp", Suite: SPECint, IPC: 0.7, IMULFraction: 0.0006,
			PoissonGap: 1.8e3, DiffuseOp: isa.OpVOR, NoSIMD: ns(-0.017, -0.006)},
		{Name: "523.xalancbmk", Suite: SPECint, IPC: 1.1, IMULFraction: 0.0004,
			BurstEvery: 110e6, BurstLen: 80, BurstIntraGap: 1200, BurstSigma: 0.8,
			BurstOp: isa.OpVPCMP, NoSIMD: ns(-0.010, -0.004)},
		{Name: "525.x264", Suite: SPECint, IPC: 2.4, IMULFraction: 0.0099,
			BurstEvery: 18e6, BurstLen: 120, BurstIntraGap: 900, BurstSigma: 0.8,
			BurstOp: isa.OpVPMAX, NoSIMD: ns(+0.070, +0.220)},
		{Name: "531.deepsjeng", Suite: SPECint, IPC: 1.5, IMULFraction: 0.0007,
			BurstEvery: 20e6, BurstLen: 60, BurstIntraGap: 1000, BurstSigma: 0.8,
			BurstOp: isa.OpVANDN, NoSIMD: ns(-0.013, -0.003)},
		{Name: "541.leela", Suite: SPECint, IPC: 1.4, IMULFraction: 0.0006,
			BurstEvery: 12e6, BurstLen: 70, BurstIntraGap: 1100, BurstSigma: 0.8,
			BurstOp: isa.OpVAND, NoSIMD: ns(-0.011, -0.003)},
		{Name: "548.exchange2", Suite: SPECint, IPC: 2.2, IMULFraction: 0.0012,
			BurstEvery: 16.5e6, BurstLen: 50, BurstIntraGap: 1000, BurstSigma: 0.8,
			BurstOp: isa.OpVPADDQ, NoSIMD: ns(+0.077, +0.068)},
		{Name: "557.xz", Suite: SPECint, IPC: 1.3, IMULFraction: 0.0008,
			BurstEvery: 75e6, BurstLen: 100, BurstIntraGap: 1300, BurstSigma: 0.8,
			BurstOp: isa.OpVPCLMULQDQ, NoSIMD: ns(-0.011, -0.003)},

		// --- fprate ---
		{Name: "503.bwaves", Suite: SPECfp, IPC: 1.5, IMULFraction: 0.0004,
			BurstEvery: 4.5e6, BurstLen: 90, BurstIntraGap: 1100, BurstSigma: 0.8,
			BurstOp: isa.OpVSQRTPD, NoSIMD: ns(-0.025, -0.012)},
		{Name: "507.cactuBSSN", Suite: SPECfp, IPC: 1.6, IMULFraction: 0.0005,
			BurstEvery: 4.6e6, BurstLen: 100, BurstIntraGap: 1200, BurstSigma: 0.8,
			BurstOp: isa.OpVAND, NoSIMD: ns(-0.030, -0.015)},
		{Name: "508.namd", Suite: SPECfp, IPC: 2.2, IMULFraction: 0.0003,
			BurstEvery: 6.4e6, BurstLen: 110, BurstIntraGap: 1000, BurstSigma: 0.8,
			BurstOp: isa.OpVSQRTPD, NoSIMD: ns(-0.220, -0.350)},
		{Name: "510.parest", Suite: SPECfp, IPC: 1.7, IMULFraction: 0.0006,
			BurstEvery: 8.5e6, BurstLen: 90, BurstIntraGap: 1100, BurstSigma: 0.8,
			BurstOp: isa.OpVPADDQ, NoSIMD: ns(-0.015, -0.009)},
		{Name: "511.povray", Suite: SPECfp, IPC: 2.0, IMULFraction: 0.0008,
			BurstEvery: 5.2e6, BurstLen: 80, BurstIntraGap: 1000, BurstSigma: 0.8,
			BurstOp: isa.OpVSQRTPD, NoSIMD: ns(-0.010, -0.005)},
		{Name: "519.lbm", Suite: SPECfp, IPC: 1.4, IMULFraction: 0.0002,
			BurstEvery: 14e6, BurstLen: 70, BurstIntraGap: 1200, BurstSigma: 0.8,
			BurstOp: isa.OpVXOR, NoSIMD: ns(-0.020, -0.011)},
		{Name: "521.wrf", Suite: SPECfp, IPC: 1.5, IMULFraction: 0.0005,
			PoissonGap: 5e3, DiffuseOp: isa.OpVAND, NoSIMD: ns(-0.014, -0.053)},
		{Name: "526.blender", Suite: SPECfp, IPC: 1.8, IMULFraction: 0.0009,
			BurstEvery: 5.8e6, BurstLen: 90, BurstIntraGap: 1000, BurstSigma: 0.8,
			BurstOp: isa.OpVPMAX, NoSIMD: ns(-0.018, -0.010)},
		{Name: "527.cam4", Suite: SPECfp, IPC: 1.5, IMULFraction: 0.0006,
			PoissonGap: 150e3, DiffuseOp: isa.OpVANDN, NoSIMD: ns(-0.013, -0.008)},
		{Name: "538.imagick", Suite: SPECfp, IPC: 2.3, IMULFraction: 0.0011,
			BurstEvery: 10e6, BurstLen: 100, BurstIntraGap: 900, BurstSigma: 0.8,
			BurstOp: isa.OpVPSRAD, NoSIMD: ns(-0.120, -0.090)},
		{Name: "544.nab", Suite: SPECfp, IPC: 1.9, IMULFraction: 0.0007,
			BurstEvery: 4.5e6, BurstLen: 80, BurstIntraGap: 1000, BurstSigma: 0.8,
			BurstOp: isa.OpVSQRTPD, NoSIMD: ns(-0.008, -0.007)},
		{Name: "549.fotonik3d", Suite: SPECfp, IPC: 1.9, IMULFraction: 0.0004,
			BurstEvery: 43e6, BurstLen: 90, BurstIntraGap: 1100, BurstSigma: 0.8,
			BurstOp: isa.OpVXOR, NoSIMD: ns(-0.007, -0.007)},
		{Name: "554.roms", Suite: SPECfp, IPC: 1.6, IMULFraction: 0.0005,
			BurstEvery: 4.5e6, BurstLen: 90, BurstIntraGap: 1100, BurstSigma: 0.8,
			BurstOp: isa.OpVSQRTPD, NoSIMD: ns(-0.033, -0.190)},
	}
}

// Nginx models the HTTPS server workload of §6.2: 100 kB files served
// over TLS, saturated by wrk. AES-NI rounds dominate request handling —
// dense intra-request AESENC bursts separated by request/network gaps —
// which is why instruction emulation is catastrophic for it (−98 %
// performance, §6.6) while DVFS curve switching works well.
func Nginx() Benchmark {
	return Benchmark{
		Name: "nginx", Suite: Network, IPC: 1.2, IMULFraction: 0.0004,
		BurstEvery: 36e6, BurstLen: 470e3, BurstIntraGap: 10, BurstSigma: 0.5,
		BurstOp: isa.OpAESENC,
		// nginx is not part of Table 4; compiled without SIMD it loses
		// its AES-NI fast path — modelled as a modest constant (the
		// trace-based evaluation never uses it: network workloads are
		// evaluated with fV and e only).
		NoSIMD: ns(-0.05, -0.05),
	}
}

// VLC models the streaming client of §6.2: a 1080p HTTPS stream, AES
// bursts per segment download with longer quiet gaps than the saturated
// server (Fig 7's burst/gap timeline).
func VLC() Benchmark {
	return Benchmark{
		Name: "VLC", Suite: Network, IPC: 1.6, IMULFraction: 0.0005,
		BurstEvery: 48e6, BurstLen: 150e3, BurstIntraGap: 20, BurstSigma: 0.7,
		BurstOp: isa.OpAESENC,
		NoSIMD:  ns(-0.05, -0.05),
	}
}

// All returns every workload of the evaluation: SPEC, nginx, VLC.
func All() []Benchmark {
	return append(SPEC(), Nginx(), VLC())
}

// byName indexes All once. Lookups share its values: nothing writes to
// a Benchmark's NoSIMD map once it is built.
var byName = sync.OnceValue(func() map[string]Benchmark {
	all := All()
	m := make(map[string]Benchmark, len(all))
	for _, b := range all {
		m[b.Name] = b
	}
	return m
})

// ByName returns the named workload.
func ByName(name string) (Benchmark, bool) {
	b, ok := byName()[name]
	return b, ok
}

// SuiteMeanNoSIMD returns the mean noSIMD impact over the given suite,
// reproducing the fprate/intrate rows of Table 4.
func SuiteMeanNoSIMD(suite Suite, fam CPUFamily) float64 {
	var sum float64
	var n int
	for _, b := range SPEC() {
		if b.Suite == suite {
			sum += b.NoSIMD[fam]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
