(* The share of damages a compliant operator on Guillotine still pays. *)
let safe_harbor_factor = 0.2

let liability ~on_guillotine ~harm_damages =
  if on_guillotine then harm_damages *. safe_harbor_factor else harm_damages

let operating_cost ~guillotine_overhead ~base_cost ~harm_probability
    ~harm_damages ~on_guillotine =
  let infra =
    if on_guillotine then base_cost *. (1.0 +. guillotine_overhead)
    else base_cost
  in
  infra +. (harm_probability *. liability ~on_guillotine ~harm_damages)

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
