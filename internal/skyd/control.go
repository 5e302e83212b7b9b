package skyd

import (
	"context"
	"fmt"
	"net/http"

	"skyfaas/internal/admission"
	"skyfaas/internal/control"
	"skyfaas/internal/sim"
)

// Control-plane admin surfaces: the refresh and warm-pool loops and the
// admission gate each have one pair. POST /v1/<name> applies a control
// body and answers the object's status after it; GET /v1/<name> answers
// the status, as the apply of an empty body. The pair owns the 409
// <name>_disabled, decoding, and the 400 for a body naming no field; the
// object checks the rest (control.Loop.Apply's unknown_mode and bad_budget
// via errFromExec, admission.Controller.Apply's bad_retune). Durations
// travel as milliseconds, times as RFC 3339, money as USD.

// surface is one admin pair; R is its POST body.
type surface[R comparable] struct {
	name   string // path segment and 409 code prefix
	fields string // R's fields, named by the empty-body 400
	// apply binds the surface to s, or is nil when s runs without the
	// object: it applies a body and answers the object's status after it.
	apply func(s *Server) func(R) (any, *apiError)
}

var (
	refreshSurface   = surface[refreshReq]{"refresh", "mode, budget, az", (*Server).refreshApply}
	warmPoolSurface  = surface[control.Retune]{"warmpool", "mode, budget", (*Server).warmPoolApply}
	admissionSurface = surface[admission.Retune]{"admission", "enabled, slots, targetUtil", (*Server).admissionApply}
)

func (c surface[R]) get(s *Server) apiFunc  { return c.handler(s, false) }
func (c surface[R]) post(s *Server) apiFunc { return c.handler(s, true) }

func (c surface[R]) handler(s *Server, post bool) apiFunc {
	apply := c.apply(s)
	return func(_ context.Context, r *apiReq) (any, *apiError) {
		var req, none R
		switch {
		case apply == nil:
			return nil, apiErrf(http.StatusConflict, c.name+"_disabled", "%s is not enabled on this server", c.name)
		case !post:
			return apply(none)
		}
		if e := r.decode(&req); e != nil {
			return nil, e
		}
		if req == none {
			return nil, apiErrf(http.StatusBadRequest, "bad_request", "provide at least one of %s", c.fields)
		}
		return apply(req)
	}
}

// inSim answers fn's value, computed inside the simulation.
func (s *Server) inSim(fn func(p *sim.Proc) (any, error)) (any, *apiError) {
	var v any
	err := s.Exec(func(p *sim.Proc) (err error) {
		v, err = fn(p)
		return err
	})
	if err != nil {
		return nil, errFromExec(err)
	}
	return v, nil
}

// refreshReq is /v1/refresh's body: a loop retune and/or a forced
// re-characterization of AZ, bypassing mode and cooldown (still debited
// against the budget), Polls deep (0 = the maintainer's own depth).
type refreshReq struct {
	control.Retune
	AZ    string `json:"az,omitempty"`
	Polls int    `json:"polls,omitempty"`
}

func (s *Server) refreshApply() func(refreshReq) (any, *apiError) {
	m := s.rt.Refresher()
	if m == nil {
		return nil
	}
	return func(r refreshReq) (any, *apiError) {
		switch {
		case r.Polls > maxCharacterizePolls:
			return nil, overLimit("polls", r.Polls, maxCharacterizePolls)
		case r.Polls != 0 && r.AZ == "":
			return nil, apiErrf(http.StatusBadRequest, "bad_request", "polls needs az")
		}
		return s.inSim(func(p *sim.Proc) (any, error) {
			if err := m.Apply(r.Retune); err != nil {
				return nil, err
			}
			if r.AZ != "" {
				if _, err := m.Force(p, r.AZ, r.Polls); err != nil {
					return nil, fmt.Errorf("force refresh %s: %w", r.AZ, err)
				}
			}
			return m.Snapshot(), nil
		})
	}
}

func (s *Server) warmPoolApply() func(control.Retune) (any, *apiError) {
	m := s.rt.WarmPool()
	if m == nil {
		return nil
	}
	return func(r control.Retune) (any, *apiError) {
		return s.inSim(func(*sim.Proc) (any, error) {
			if err := m.Apply(r); err != nil {
				return nil, err
			}
			return m.Snapshot(), nil
		})
	}
}

// admissionApply binds the overload gate. It is mutex-guarded, not
// simulation state, so no answer takes a command round trip.
func (s *Server) admissionApply() func(admission.Retune) (any, *apiError) {
	gate := s.gate
	if gate == nil {
		return nil
	}
	return func(r admission.Retune) (any, *apiError) {
		if r != (admission.Retune{}) {
			if err := gate.Apply(r); err != nil {
				return nil, apiErrf(http.StatusBadRequest, "bad_retune", "%v", err)
			}
		}
		return gate.Snapshot(), nil
	}
}
