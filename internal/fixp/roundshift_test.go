package fixp

import (
	"math"
	"math/rand"
	"testing"
)

// roundShiftRef is the branchy round-to-nearest/even right shift that
// RoundShift replaced, kept as the oracle: floor-shift, then add one when
// the discarded fraction exceeds half, or equals half and the floor is odd.
func roundShiftRef(x int64, s uint) int64 {
	if s == 0 {
		return x
	}
	half := int64(1) << (s - 1)
	mask := (int64(1) << s) - 1
	frac := x & mask
	q := x >> s
	switch {
	case frac > half:
		q++
	case frac == half:
		if q&1 != 0 {
			q++
		}
	}
	return q
}

// roundShiftInputs returns, for shift s, the int64 extremes, the values
// around zero, every tie k*2^s + 2^(s-1) (and its neighbours) for small k
// and for k at both ends of the range, and random values.
func roundShiftInputs(s uint, rng *rand.Rand) []int64 {
	xs := []int64{
		math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2,
		math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 2,
		-2, -1, 0, 1, 2,
	}
	if s == 0 {
		return xs
	}
	half := int64(1) << (s - 1)
	hi := int64(math.MaxInt64) >> s // largest k with k*2^s representable
	for _, k := range []int64{-4, -3, -2, -1, 0, 1, 2, 3, hi, hi - 1, hi - 2, -hi - 1, -hi, -hi + 1} {
		tie := k<<s + half // may wrap at the extremes: still an int64 input
		xs = append(xs, tie-1, tie, tie+1, k<<s, k<<s-1, k<<s+1)
	}
	for i := 0; i < 512; i++ {
		k := rng.Int63() >> s
		if rng.Intn(2) == 0 {
			k = -k - 1
		}
		xs = append(xs, k<<s+half, k<<s+half-1, k<<s+half+1, int64(rng.Uint64()))
	}
	return xs
}

// TestRoundShiftMatchesReference: the branch-free RoundShift is the
// branchy oracle bit for bit over every shift in its domain, ties and the
// int64 extremes included — no operand range is excluded.
func TestRoundShiftMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for s := uint(0); s < 64; s++ {
		for _, x := range roundShiftInputs(s, rng) {
			if got, want := RoundShift(x, s), roundShiftRef(x, s); got != want {
				t.Fatalf("RoundShift(%d, %d) = %d, oracle %d", x, s, got, want)
			}
		}
	}
}

// TestRoundShiftSymmetryAllShifts extends the odd-symmetry property to
// every shift and to the extremes whose negation is representable.
func TestRoundShiftSymmetryAllShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for s := uint(0); s < 64; s++ {
		for _, x := range roundShiftInputs(s, rng) {
			if x == math.MinInt64 {
				continue // -x overflows
			}
			if RoundShift(-x, s) != -RoundShift(x, s) {
				t.Fatalf("RoundShift(-%d, %d) != -RoundShift(%d, %d)", x, s, x, s)
			}
		}
	}
}

// TestAcc64ToF32Wrapped: rounding an accumulator back to F32 matches the
// oracle on accumulators whose running sums wrapped, at the extremes,
// and on exact ties at the Q2.62 -> Q1.31 shift.
func TestAcc64ToF32Wrapped(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(a Acc64) {
		t.Helper()
		if got, want := a.ToF32(), F32(int32(roundShiftRef(int64(a), FracBits))); got != want {
			t.Fatalf("Acc64(%d).ToF32() = %d, oracle %d", int64(a), got, want)
		}
	}
	for _, a := range []Acc64{math.MinInt64, math.MaxInt64, 0, 1 << (FracBits - 1), 3 << (FracBits - 1), -(1 << (FracBits - 1))} {
		check(a)
	}
	for i := 0; i < 2000; i++ {
		var a Acc64
		for j := 0; j < 64; j++ {
			a = a.AddRaw(F32(rng.Uint32()).MulRaw(F32(rng.Uint32())))
			a = a.AddF(F32(rng.Uint32()))
			check(a) // sums of Q2.62 products wrap within a few terms
		}
	}
}

// FuzzRoundShift compares RoundShift with the oracle on arbitrary
// operands; the shift is reduced into the domain [0, 63].
func FuzzRoundShift(f *testing.F) {
	f.Add(int64(0), uint8(0))
	f.Add(int64(24), uint8(4))
	f.Add(int64(math.MaxInt64), uint8(62))
	f.Add(int64(math.MinInt64), uint8(63))
	f.Add(int64(3)<<61, uint8(62))
	f.Fuzz(func(t *testing.T, x int64, s8 uint8) {
		s := uint(s8 % 64)
		if got, want := RoundShift(x, s), roundShiftRef(x, s); got != want {
			t.Fatalf("RoundShift(%d, %d) = %d, oracle %d", x, s, got, want)
		}
	})
}
