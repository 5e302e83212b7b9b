//go:build ignore

// This file is excluded by its build constraint, as the go tool excludes
// it: skylint must neither type-check it (WallClock is declared twice)
// nor report its wall-clock read.
package sim

import "time"

// WallClock redeclares clock.go's.
func WallClock() time.Time {
	return time.Now()
}
