// Package dvfs declares the guarded enum types for the exhaustive
// fixture (a stand-in for the real suit/internal/dvfs).
package dvfs

type DomainKind uint8

const (
	SingleDomain DomainKind = iota
	PerCoreFreq
	PerCoreBoth
)
