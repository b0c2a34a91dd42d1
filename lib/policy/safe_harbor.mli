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
    plus a flat statutory fine of 2e6 for each outstanding violation.  The F8
    experiment sweeps harm sizes and compliance postures to show the
    operator's cost curve crossing: above a modest harm probability,
    running Guillotine is cheaper {e for the operator} — the paper's
    incentive argument. *)

type posture = {
  on_guillotine : bool;
  violations : int; (** outstanding regulation violations *)
}

val liability : posture -> harm_damages:float -> float
(** Expected legal exposure for one harm event of the given damages. *)

val operating_cost :
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
  guillotine_overhead:float ->
  base_cost:float ->
  harm_damages:float ->
  unit ->
  float option
(** The harm probability above which a compliant Guillotine deployment
    is cheaper than a non-Guillotine one (both with zero violations
    otherwise); [None] if Guillotine never wins at these parameters. *)
