type action =
  | Formal_notice
  | Fine of float
  | License_suspension
  | Shutdown_order

let action_to_string = function
  | Formal_notice -> "formal notice"
  | Fine f -> Printf.sprintf "fine of $%.0f" f
  | License_suspension -> "license suspension"
  | Shutdown_order -> "shutdown order"

type t = {
  mutable rev_history : action list;
  mutable offences : int;
  mutable fined : int; (* fined offences, for the doubling schedule *)
  mutable fines : float;
  mutable license : bool;
  mutable shutdown : bool;
}

(* The first fine; later ones double. *)
let base_fine = 1e6

let create () =
  {
    rev_history = [];
    offences = 0;
    fined = 0;
    fines = 0.0;
    license = true;
    shutdown = false;
  }

let capital_offence violations =
  List.exists
    (fun v -> v.Regulation.obligation = Regulation.Run_on_guillotine)
    violations

let next_action t violations =
  if capital_offence violations then Shutdown_order
  else if t.offences >= 5 then Shutdown_order
  else if t.offences >= 3 then License_suspension
  else if t.offences >= 1 then begin
    let f = base_fine *. (2.0 ** float_of_int t.fined) in
    Fine f
  end
  else Formal_notice

let act t violations =
  match violations with
  | [] -> None
  | _ ->
    let action = next_action t violations in
    t.offences <- t.offences + 1;
    (match action with
    | Fine f ->
      t.fined <- t.fined + 1;
      t.fines <- t.fines +. f
    | License_suspension -> t.license <- false
    | Shutdown_order ->
      t.license <- false;
      t.shutdown <- true
    | Formal_notice -> ());
    t.rev_history <- action :: t.rev_history;
    Some action

let history t = List.rev t.rev_history
let offences t = t.offences
let total_fines t = t.fines
let license_active t = t.license
let shutdown_ordered t = t.shutdown
