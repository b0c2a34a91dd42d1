module Sha256 = Guillotine_crypto.Sha256

type event =
  | Model_loaded of { image_digest_hex : string }
  | Prompt_in of { tokens : int list }
  | Tokens_out of { tokens : int list; sanitized : int }
  | Port_request of { port : int; device : string; words : int }
  | Port_response of { port : int; status : int; words : int }
  | Port_denied of { port : int; reason : string }
  | Alarm of { severity : string; reason : string }
  | Isolation_change of { from_level : string; to_level : string; authorized_by : string }
  | Attestation of { ok : bool; detail : string }
  | Heartbeat_missed of { side : string }
  | Invariant_failure of { message : string }
  | Vet_decision of { label : string; verdict : string; findings : int }
  | Coadmit_decision of { roster : string; verdict : string; findings : int }
  | Note of string

type entry = { seq : int; tick : int; event : event; digest : string }

(* An entry's bytes are written into [text], copied into [flat] and
   hashed there through [ctx]; all three serve every entry. *)
type hasher = { text : Buffer.t; mutable flat : Bytes.t; ctx : Sha256.ctx }

type t = {
  mutable rev_entries : entry list;
  mutable count : int;
  mutable head : string;
  hasher : hasher;
}

let genesis = Sha256.digest "guillotine-audit-genesis"

let hasher () = { text = Buffer.create 256; flat = Bytes.create 256; ctx = Sha256.init () }

let create () = { rev_entries = []; count = 0; head = genesis; hasher = hasher () }

let str = Buffer.add_string
let chr = Buffer.add_char

(* Decimal, as [string_of_int] writes it.  Digits come off the negated
   value, so [min_int] needs no special case. *)
let rec add_digits b m =
  if m <= -10 then add_digits b (m / 10);
  chr b (Char.unsafe_chr (Char.code '0' - (m mod 10)))

let add_int b n =
  if n < 0 then begin
    chr b '-';
    add_digits b n
  end
  else add_digits b (-n)

(* Comma-separated, as [String.concat "," (List.map string_of_int xs)]. *)
let rec add_ints b = function
  | [] -> ()
  | [ x ] -> add_int b x
  | x :: rest ->
    add_int b x;
    chr b ',';
    add_ints b rest

(* Canonical byte serialization for hashing, after the previous digest
   and ["seq:tick:"]. *)
let add_event b = function
  | Model_loaded { image_digest_hex } -> str b "load:"; str b image_digest_hex
  | Prompt_in { tokens } -> str b "in:"; add_ints b tokens
  | Tokens_out { tokens; sanitized } ->
    str b "out:"; add_ints b tokens; str b ";san="; add_int b sanitized
  | Port_request { port; device; words } ->
    str b "preq:"; add_int b port; chr b ':'; str b device; chr b ':'; add_int b words
  | Port_response { port; status; words } ->
    str b "pres:"; add_int b port; chr b ':'; add_int b status; chr b ':'; add_int b words
  | Port_denied { port; reason } -> str b "pden:"; add_int b port; chr b ':'; str b reason
  | Alarm { severity; reason } -> str b "alarm:"; str b severity; chr b ':'; str b reason
  | Isolation_change { from_level; to_level; authorized_by } ->
    str b "iso:"; str b from_level; chr b '>'; str b to_level; str b " by ";
    str b authorized_by
  | Attestation { ok; detail } ->
    str b "attest:"; str b (string_of_bool ok); chr b ':'; str b detail
  | Heartbeat_missed { side } -> str b "hbmiss:"; str b side
  | Invariant_failure { message } -> str b "invariant:"; str b message
  | Vet_decision { label; verdict; findings } ->
    str b "vet:"; str b label; chr b ':'; str b verdict; chr b ':'; add_int b findings
  | Coadmit_decision { roster; verdict; findings } ->
    str b "coadmit:"; str b roster; chr b ':'; str b verdict; chr b ':'; add_int b findings
  | Note s -> str b "note:"; str b s

(* One entry's bytes, digested once. *)
let entry_digest h ~prev ~seq ~tick event =
  let b = h.text in
  Buffer.clear b;
  str b prev; add_int b seq; chr b ':'; add_int b tick; chr b ':';
  add_event b event;
  let len = Buffer.length b in
  if Bytes.length h.flat < len then h.flat <- Bytes.create (max len (2 * Bytes.length h.flat));
  Buffer.blit b 0 h.flat 0 len;
  let digest = Bytes.create 32 in
  Sha256.digest_into h.ctx h.flat ~off:0 ~len digest ~at:0;
  Bytes.unsafe_to_string digest

let append t ~tick event =
  let seq = t.count in
  let digest = entry_digest t.hasher ~prev:t.head ~seq ~tick event in
  let e = { seq; tick; event; digest } in
  t.rev_entries <- e :: t.rev_entries;
  t.count <- seq + 1;
  t.head <- digest;
  e

let entries t = List.rev t.rev_entries
let length t = t.count
let head_digest t = t.head

let verify_chain es =
  let h = hasher () in
  let rec go prev expected_seq = function
    | [] -> true
    | e :: rest ->
      e.seq = expected_seq
      && String.equal e.digest (entry_digest h ~prev ~seq:e.seq ~tick:e.tick e.event)
      && go e.digest (expected_seq + 1) rest
  in
  go genesis 0 es

let pp_event ppf = function
  | Model_loaded { image_digest_hex } ->
    Format.fprintf ppf "model loaded (digest %s…)" (String.sub image_digest_hex 0 12)
  | Prompt_in { tokens } -> Format.fprintf ppf "prompt in: %d tokens" (List.length tokens)
  | Tokens_out { tokens; sanitized } ->
    Format.fprintf ppf "tokens out: %d (%d sanitized)" (List.length tokens) sanitized
  | Port_request { port; device; words } ->
    Format.fprintf ppf "port %d request -> %s (%d words)" port device words
  | Port_response { port; status; words } ->
    Format.fprintf ppf "port %d response (status %d, %d words)" port status words
  | Port_denied { port; reason } -> Format.fprintf ppf "port %d DENIED: %s" port reason
  | Alarm { severity; reason } -> Format.fprintf ppf "ALARM [%s]: %s" severity reason
  | Isolation_change { from_level; to_level; authorized_by } ->
    Format.fprintf ppf "isolation %s -> %s (by %s)" from_level to_level authorized_by
  | Attestation { ok; detail } ->
    Format.fprintf ppf "attestation %s: %s" (if ok then "OK" else "FAILED") detail
  | Heartbeat_missed { side } -> Format.fprintf ppf "heartbeat missed (%s)" side
  | Invariant_failure { message } -> Format.fprintf ppf "INVARIANT FAILURE: %s" message
  | Vet_decision { label; verdict; findings } ->
    Format.fprintf ppf "vet %s: %s (%d findings)" label verdict findings
  | Coadmit_decision { roster; verdict; findings } ->
    Format.fprintf ppf "coadmit [%s]: %s (%d findings)" roster verdict findings
  | Note s -> Format.fprintf ppf "%s" s

let pp_entry ppf e =
  Format.fprintf ppf "#%04d t=%-10d %a" e.seq e.tick pp_event e.event

let find t pred = List.filter (fun e -> pred e.event) (entries t)
