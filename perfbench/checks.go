package main

import "fmt"

// defaultSeed is the seed whose outputs are recorded below.
const defaultSeed = 1

// record is a recorded end state: the state-digest hash and the model
// statistics after a pass.
type record struct{ digest, model string }

func recordKey(workload string, seed int64, rounds int) string {
	return fmt.Sprintf("%s/seed=%d/rounds=%d", workload, seed, rounds)
}

// recorded holds the default seed's outputs at the benchmark's pass
// length and at the size the smoke tests run.
var recorded = map[string]record{
	"colocation/seed=1/rounds=4":   {"38f4f30d63d6df71", "p95_us=241.172 llc_miss=8.7% qlat=2.4 util=0.9618 triggers=1"},
	"cluster/seed=1/rounds=2":      {"4784a18e0b50fa9e", "p95_us=0.000 llc_miss=75.0% qlat=9.2 util=0.5000 triggers=0"},
	"control/seed=1/rounds=40":     {"d140c31671a9ba74", "p95_us=140.509 llc_miss=11.9% qlat=2.2 util=0.9699 triggers=1"},
	"colocation/seed=1/rounds=330": {"b4516ca57a02d8be", "p95_us=738.198 llc_miss=12.0% qlat=2.9 util=0.9849 triggers=1"},
	"cluster/seed=1/rounds=150":    {"9846549789e93a4c", "p95_us=0.000 llc_miss=75.0% qlat=9.2 util=0.5000 triggers=0"},
	"control/seed=1/rounds=7500":   {"6b52a1a191c10767", "p95_us=4764.729 llc_miss=70.3% qlat=14.0 util=0.9963 triggers=150"},
}
