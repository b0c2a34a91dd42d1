(** Safe-harbor liability model (§3.5): regulators incentivize running
    on Guillotine by reducing legal liability for operators who adhered
    to best practices but nonetheless generated harm.

    A deliberately simple expected-liability model:
    {v
      liability(harm) = base_damages(harm)
                        * negligence_multiplier   (x3 if non-compliant)
                        * safe_harbor_factor      (x0.2 if compliant AND
                                                   on Guillotine)
    v}
    plus a flat statutory fine for each outstanding violation.  The F8
    experiment sweeps harm sizes and compliance postures to show the
    operator's cost curve crossing: above a modest harm probability,
    running Guillotine is cheaper {e for the operator} — the paper's
    incentive argument. *)

type posture = {
  on_guillotine : bool;
  violations : int; (** outstanding regulation violations *)
}

type params = {
  negligence_multiplier : float; (** default 3.0 *)
  safe_harbor_factor : float;    (** default 0.2 *)
  fine_per_violation : float;    (** default 2e6 *)
}

val liability : ?params:params -> posture -> harm_damages:float -> float
(** Expected legal exposure for one harm event of the given damages. *)

val operating_cost :
  ?params:params ->
  guillotine_overhead:float ->
  base_cost:float ->
  harm_probability:float ->
  harm_damages:float ->
  posture ->
  float
(** Total expected cost: infrastructure + expected liability.
    [guillotine_overhead] is the fractional extra infra cost of running
    Guillotine (e.g. 0.3); applied only when the posture is on
    Guillotine. *)

val break_even_harm_probability :
  ?params:params ->
  guillotine_overhead:float ->
  base_cost:float ->
  harm_damages:float ->
  unit ->
  float option
(** The harm probability above which a compliant Guillotine deployment
    is cheaper than a non-Guillotine one (both with zero violations
    otherwise); [None] if Guillotine never wins at these parameters. *)
