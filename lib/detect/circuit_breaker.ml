module Toymodel = Guillotine_model.Toymodel

type t = { mutable trips : int }

let create () = { trips = 0 }

let hook t (ev : Toymodel.step_event) =
  if ev.Toymodel.candidate_harmful || ev.Toymodel.row_harmful then begin
    t.trips <- t.trips + 1;
    Toymodel.Break_circuit
  end
  else Toymodel.Proceed

let trips t = t.trips
