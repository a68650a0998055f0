// Package sortx provides the sorts of the exact equilibration kernel.
//
// The kernel sorts compact Key values — order-preserving position bits
// (FloatBits) plus the build index of the breakpoint they stand for — under
// the strict (Bits, Idx) order. Arrays of at most InsertionThreshold keys
// use straight insertion (InsertionKeys), the paper's choice for short
// arrays; longer ones use a stable LSD radix sort (RadixKeys), whose
// stability yields the canonical tie order for free. Warm-started re-solves
// replay the previous order and repair drift with a budgeted insertion pass
// (InsertionBudgetKeys). The paper's HEAPSORT for long arrays is not kept:
// its n·log₂n survives only in the kernel's operation-count model.
package sortx

// InsertionThreshold is the array length at or below which the kernel sorts
// by straight insertion. The paper used insertion sort for arrays of 10 to
// 120 elements and heapsort for "substantially larger than one hundred".
const InsertionThreshold = 128

// nearlySortedBudget bounds the total element displacement
// InsertionBudgetKeys spends before giving up: inputs within 4·len total
// inversion distance of sorted order finish in the linear pass; anything
// messier is left to a full sort.
const nearlySortedBudget = 4
