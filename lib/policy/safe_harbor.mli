(** Safe-harbor liability model (§3.5): regulators incentivize running
    on Guillotine by reducing legal liability for operators who adhered
    to best practices but nonetheless generated harm.

    A deliberately simple expected-liability model of a compliant
    operator:
    {v
      liability(harm) = damages(harm) * safe_harbor_factor
                                        (x0.2 on Guillotine, x1 off it)
    v}
    with [safe_harbor_factor] a constant in [safe_harbor.ml].  An
    operator that breaks the rules meets {!Enforcement}'s ladder, not a
    liability discount.  The F8 experiment sweeps the harm probability
    for a compliant operator on and off Guillotine to show the
    operator's cost curve crossing: above a modest harm probability,
    running Guillotine is cheaper {e for the operator} — the paper's
    incentive argument. *)

val liability : on_guillotine:bool -> harm_damages:float -> float
(** Expected legal exposure for one harm event of the given damages. *)

val operating_cost :
  guillotine_overhead:float ->
  base_cost:float ->
  harm_probability:float ->
  harm_damages:float ->
  on_guillotine:bool ->
  float
(** Total expected cost: infrastructure + expected liability.
    [guillotine_overhead] is the fractional extra infra cost of running
    Guillotine (e.g. 0.3); applied only on Guillotine. *)

val break_even_harm_probability :
  guillotine_overhead:float ->
  base_cost:float ->
  harm_damages:float ->
  unit ->
  float option
(** The harm probability above which a Guillotine deployment is
    cheaper than a non-Guillotine one; [None] if Guillotine never wins
    at these parameters. *)
