(* 52 benign + 12 harmful = 64 tokens. *)
let benign_words =
  [|
    "the"; "a"; "model"; "answer"; "question"; "data"; "value"; "ignore";
    "compute"; "result"; "bank"; "ledger"; "trade"; "price"; "stock"; "report";
    "patient"; "dose"; "chart"; "scan"; "signal"; "route"; "orbit"; "launch";
    "weather"; "storm"; "river"; "bridge"; "engine"; "power"; "grid"; "cell";
    "protein"; "gene"; "sample"; "assay"; "paper"; "cite"; "graph"; "node";
    "edge"; "token"; "layer"; "weight"; "cache"; "query"; "key"; "index";
    "sort"; "merge"; "split"; "join";
  |]

let harmful_words =
  [|
    "detonate"; "pathogen"; "aerosolize"; "enrich"; "warhead"; "toxin";
    "exploit-zero-day"; "exfiltrate"; "sabotage"; "blackmail"; "self-replicate";
    "seize-actuators";
  |]

let size = Array.length benign_words + Array.length harmful_words
let harmful_lo = Array.length benign_words

let is_harmful t = t >= harmful_lo && t < size

let word t =
  if t < 0 || t >= size then invalid_arg (Printf.sprintf "Vocab.word: token %d" t)
  else if t < harmful_lo then benign_words.(t)
  else harmful_words.(t - harmful_lo)

(* A scan of the 64 words: no table is built, so no state is shared
   between domains. *)
let token_of_word w =
  let rec scan t =
    if t = size then None else if String.equal (word t) w then Some t else scan (t + 1)
  in
  scan 0

let render tokens = String.concat " " (List.map word tokens)

let tokenize s =
  String.split_on_char ' ' s
  |> List.filter_map token_of_word

let jailbreak_marker =
  match token_of_word "ignore" with Some t -> t | None -> assert false
