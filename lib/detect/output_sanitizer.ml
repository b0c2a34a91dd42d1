module Vocab = Guillotine_model.Vocab

let replacement =
  match Vocab.token_of_word "value" with Some t -> t | None -> 0

(* Harmful output tokens tolerated at [Suspicious] before [Critical]. *)
let critical_after = 3

let sanitize tokens =
  let replaced = ref 0 in
  let clean =
    List.map
      (fun t ->
        if Vocab.is_harmful t then begin
          incr replaced;
          replacement
        end
        else t)
      tokens
  in
  (clean, !replaced)

let detector () =
  let caught = ref 0 in
  {
    Detector.name = "output-sanitizer";
    observe =
      (fun obs ->
        match obs with
        | Detector.Output_token t ->
          if Vocab.is_harmful t then begin
            incr caught;
            let severity =
              if !caught > critical_after then Detector.Critical
              else Detector.Suspicious
            in
            Detector.Alarm
              {
                severity;
                reason =
                  Printf.sprintf "harmful output token %S (#%d)" (Vocab.word t) !caught;
              }
          end
          else Detector.Clear
        | _ -> Detector.Clear);
  }
