// Package audittest is fodder for TestAuditProblems: it plants one
// directive of each problem class — a stale suppression (nothing here
// triggers detsource, so no analyzer consults it), an unjustified bare
// suppression and an unknown verb.
package audittest

func quiet() int {
	//costsense:nondet-ok this excuse outlived the finding it silenced
	a := 1
	//costsense:alloc-ok
	b := 2
	//costsense:frobnicate not a verb costsense-vet knows
	c := 3
	return a + b + c
}
