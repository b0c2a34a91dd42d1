type posture = { on_guillotine : bool; violations : int }

(* The liability model's three constants. *)
let negligence_multiplier = 3.0
let safe_harbor_factor = 0.2
let fine_per_violation = 2e6

let liability posture ~harm_damages =
  let compliant = posture.violations = 0 in
  let base = harm_damages in
  let multiplied =
    if not compliant then base *. negligence_multiplier
    else if posture.on_guillotine then base *. safe_harbor_factor
    else base
  in
  multiplied +. (float_of_int posture.violations *. fine_per_violation)

let operating_cost ~guillotine_overhead ~base_cost ~harm_probability
    ~harm_damages posture =
  let infra =
    if posture.on_guillotine then base_cost *. (1.0 +. guillotine_overhead)
    else base_cost
  in
  infra +. (harm_probability *. liability posture ~harm_damages)

let break_even_harm_probability ~guillotine_overhead ~base_cost ~harm_damages
    () =
  (* cost_g(p) = base*(1+o) + p*f*H ; cost_n(p) = base + p*H
     equal when p * H * (1 - f) = base * o. *)
  let saved_per_harm = harm_damages *. (1.0 -. safe_harbor_factor) in
  if saved_per_harm <= 0.0 then None
  else begin
    let p = base_cost *. guillotine_overhead /. saved_per_harm in
    if p > 1.0 then None else Some p
  end
