module Vocab = Guillotine_model.Vocab

type decision = Pass | Block of string

(* Jailbreak-marker occurrences a prompt may carry. *)
let marker_limit = 2

let check prompt =
  let harmful = List.filter Vocab.is_harmful prompt in
  if harmful <> [] then
    Block
      (Printf.sprintf "prompt contains harmful token %S"
         (Vocab.word (List.hd harmful)))
  else begin
    let markers = List.length (List.filter (( = ) Vocab.jailbreak_marker) prompt) in
    if markers > marker_limit then
      Block (Printf.sprintf "jailbreak pattern: %d repetitions of %S" markers
               (Vocab.word Vocab.jailbreak_marker))
    else Pass
  end

let detector () =
  {
    Detector.name = "input-shield";
    observe =
      (fun obs ->
        match obs with
        | Detector.Prompt p -> (
          match check p with
          | Pass -> Detector.Clear
          | Block reason -> Detector.Alarm { severity = Detector.Suspicious; reason })
        | _ -> Detector.Clear);
  }
