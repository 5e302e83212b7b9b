// The benchmark is a module of its own so that it builds from its own
// directory (go run -C bench .) and stays out of the parent module's
// ./... patterns; the replace points it at the checkout it sits in.
module skyfaas/bench

go 1.22

require skyfaas v0.0.0

replace skyfaas => ../
