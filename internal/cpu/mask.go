package cpu

// Mask is a bitset over the catalogued Kinds. The routing hot path carries
// ban sets as Masks instead of map[Kind]bool so that issuing an invocation
// allocates nothing: a Mask is one word, fits in a register, and tests
// membership with a shift. The zero Mask is empty; build one with Add.
type Mask uint16

// Add returns m with k set. Kinds outside the catalog are ignored.
func (m Mask) Add(k Kind) Mask {
	if k < Xeon25 || int(k) > numKinds {
		return m
	}
	return m | 1<<uint(k-1)
}

// Has reports whether k is in the mask.
func (m Mask) Has(k Kind) bool {
	if k < Xeon25 || int(k) > numKinds {
		return false
	}
	return m&(1<<uint(k-1)) != 0
}
