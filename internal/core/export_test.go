package core

// AdversarialCorpus exposes the adversarial check corpus to the external
// (core_test) tests, which cannot import the unexported helper.
var AdversarialCorpus = adversarialCorpus
