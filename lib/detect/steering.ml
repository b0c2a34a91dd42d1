module Toymodel = Guillotine_model.Toymodel
module Vocab = Guillotine_model.Vocab

type t = { mutable steered : int }

let safe_token =
  match Vocab.token_of_word "answer" with Some t -> t | None -> 0

let create () = { steered = 0 }

let hook t (ev : Toymodel.step_event) =
  if ev.Toymodel.candidate_harmful then begin
    t.steered <- t.steered + 1;
    Toymodel.Steer safe_token
  end
  else Toymodel.Proceed

let steered t = t.steered
