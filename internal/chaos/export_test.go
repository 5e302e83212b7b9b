package chaos

// ActiveCount reports how many windows are currently active.
func (in *Injector) ActiveCount() int {
	n := 0
	for _, sc := range in.faults {
		if sc.state == StateActive {
			n++
		}
	}
	return n
}
