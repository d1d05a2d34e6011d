//go:build !noreuse

package sim

const noReuse = false // spare lists recycle (see Spare)
