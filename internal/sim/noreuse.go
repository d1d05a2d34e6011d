//go:build noreuse

package sim

const noReuse = true // the twin build: no spare list hands a record out (see Spare)
