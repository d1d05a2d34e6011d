package core

// Rebalancer is the uniform control surface over the two load-spreading
// schemes: the migration balancer (internal/balance — move hot directory
// homes) and the hot-key cache tier (internal/hotcache — shadow hot keys
// in an upper cache layer partitioned by an independent hash). The
// controller builds one of them per Options.Rebalance; telemetry and
// yottactl (`rebalance on|off|status|report`) drive whichever is
// installed through this interface without knowing the scheme.
type Rebalancer interface {
	// Scheme names the strategy: "migrate" or "hotcache".
	Scheme() string
	// SetEnabled arms or parks the scheme. Parking the cache tier also
	// drops its cached copies; parking the balancer resets its skew
	// streak.
	SetEnabled(on bool)
	// Status is a one-line state summary.
	Status() string
	// Report is the full activity breakdown (decision log or per-node
	// cache statistics).
	Report() string
}

// Rebalance scheme names accepted by Options.Rebalance.
const (
	RebalanceMigrate  = "migrate"
	RebalanceHotCache = "hotcache"
	RebalanceOff      = "off"
)
