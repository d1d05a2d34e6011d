package workload

import "math/rand"

// BucketOp is one generated object-gateway operation: a user touches one
// object inside one bucket. Indices are into the populations the caller
// registered with the gateway (users and buckets are cheap to enumerate;
// the mapping to tokens/bucket names stays with the experiment).
type BucketOp struct {
	User   int
	Bucket int
	Obj    int
	Write  bool
}

// BucketZipf is the multi-tenant object workload: bucket popularity is
// Zipf-skewed (a handful of buckets take most of the traffic — the same
// "hot data" shape as the block patterns, §2), the object within a bucket
// is uniform, and the acting user is uniform over a large population.
// The bucket ranks ride on ShiftingZipf, so the hot-bucket set can rotate
// mid-run exactly like the block generator's hot set; pass a RotateEvery
// beyond the run's op budget for static popularity.
//
// Construct with NewBucketZipf: like the block patterns, the Zipf value
// generator binds to one rng at construction so the op stream is fully
// determined by that rng's seed from op 0.
type BucketZipf struct {
	// Users is the simulated user population size (draws are uniform).
	Users int
	// ObjectsPerBucket bounds the per-bucket object index (uniform).
	ObjectsPerBucket int
	// WriteFrac is the probability an op is a put instead of a get.
	WriteFrac float64

	ranks *ShiftingZipf
}

// NewBucketZipf builds a bucket-popularity generator over buckets with
// Zipf skew s, bound to rng from construction. rotateEvery/stride shift
// the hot-bucket set like NewShiftingZipf (0 = the block defaults).
func NewBucketZipf(rng *rand.Rand, users, buckets, objectsPerBucket int, s, writeFrac float64, rotateEvery, stride int64) *BucketZipf {
	if buckets < 1 {
		buckets = 1
	}
	return &BucketZipf{
		Users:            users,
		ObjectsPerBucket: objectsPerBucket,
		WriteFrac:        writeFrac,
		// WriteFrac 0 on the inner pattern: the write draw happens here
		// (after the user/object draws) so the rng consumption order is
		// part of this type's determinism contract, not the inner one's.
		ranks: NewShiftingZipf(rng, int64(buckets), s, 1, 0, rotateEvery, stride),
	}
}

// Next draws one operation. The rng consumption order is fixed: bucket
// rank (from the bound generator), inner write draw, user, object, write.
func (b *BucketZipf) Next(rng *rand.Rand) BucketOp {
	op := b.ranks.Next(rng)
	users := b.Users
	if users < 1 {
		users = 1
	}
	objs := b.ObjectsPerBucket
	if objs < 1 {
		objs = 1
	}
	return BucketOp{
		User:   rng.Intn(users),
		Bucket: int(op.LBA),
		Obj:    rng.Intn(objs),
		Write:  rng.Float64() < b.WriteFrac,
	}
}
