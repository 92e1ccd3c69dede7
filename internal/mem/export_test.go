package mem

// ZeroTags and ZeroRanks are the zero pages every new cache starts on,
// for tests outside the package that hold them to all zeros.
var (
	ZeroTags  = zeroTags[:]
	ZeroRanks = zeroRanks[:]
)
