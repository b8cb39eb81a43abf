package dep

// ConservativeReason exposes conservativeReason to the external tests.
var ConservativeReason = conservativeReason
