// Package sim is an exhaustive fixture: switches over the guarded dvfs
// enums from a consuming package.
package sim

import (
	"fmt"

	"suit/internal/dvfs"
)

func incomplete(k dvfs.DomainKind) string {
	switch k { // want `switch on dvfs\.DomainKind is missing cases PerCoreBoth`
	case dvfs.SingleDomain:
		return "single"
	case dvfs.PerCoreFreq:
		return "freq"
	}
	return ""
}

func covered(k dvfs.DomainKind) string {
	switch k {
	case dvfs.SingleDomain, dvfs.PerCoreFreq, dvfs.PerCoreBoth:
		return "known"
	}
	return ""
}

func panickingDefault(k dvfs.DomainKind) string {
	switch k {
	case dvfs.SingleDomain:
		return "single"
	default:
		panic(fmt.Sprintf("unknown domain kind %d", k))
	}
}

func lazyDefault(k dvfs.DomainKind) string {
	switch k { // want `switch on dvfs\.DomainKind is missing cases PerCoreBoth, PerCoreFreq`
	case dvfs.SingleDomain:
		return "s"
	default:
		return "?"
	}
}

func unguardedInt(x int) string {
	switch x {
	case 1:
		return "one"
	}
	return ""
}

func suppressed(k dvfs.DomainKind) bool {
	//lint:allow exhaustive fixture: only the shared-domain case is relevant here
	switch k {
	case dvfs.SingleDomain:
		return true
	}
	return false
}
