(* Reference audit-chain encoder, for tests only: the [Printf] and
   [String.concat] serialization the log used, and the three-part
   [Sha256.digest_concat] over the previous digest, ["seq:tick:"] and
   the event bytes.  Every digest the library's log returns must equal
   this chain's.  The two share nothing but SHA-256 and the event type. *)

module Audit = Guillotine_hv.Audit
module Sha256 = Guillotine_crypto.Sha256

let genesis = Sha256.digest "guillotine-audit-genesis"

let ints xs = String.concat "," (List.map string_of_int xs)

let event_bytes = function
  | Audit.Model_loaded { image_digest_hex } -> "load:" ^ image_digest_hex
  | Audit.Prompt_in { tokens } -> "in:" ^ ints tokens
  | Audit.Tokens_out { tokens; sanitized } ->
    Printf.sprintf "out:%s;san=%d" (ints tokens) sanitized
  | Audit.Port_request { port; device; words } ->
    Printf.sprintf "preq:%d:%s:%d" port device words
  | Audit.Port_response { port; status; words } ->
    Printf.sprintf "pres:%d:%d:%d" port status words
  | Audit.Port_denied { port; reason } -> Printf.sprintf "pden:%d:%s" port reason
  | Audit.Alarm { severity; reason } -> Printf.sprintf "alarm:%s:%s" severity reason
  | Audit.Isolation_change { from_level; to_level; authorized_by } ->
    Printf.sprintf "iso:%s>%s by %s" from_level to_level authorized_by
  | Audit.Attestation { ok; detail } -> Printf.sprintf "attest:%b:%s" ok detail
  | Audit.Heartbeat_missed { side } -> "hbmiss:" ^ side
  | Audit.Invariant_failure { message } -> "invariant:" ^ message
  | Audit.Vet_decision { label; verdict; findings } ->
    Printf.sprintf "vet:%s:%s:%d" label verdict findings
  | Audit.Coadmit_decision { roster; verdict; findings } ->
    Printf.sprintf "coadmit:%s:%s:%d" roster verdict findings
  | Audit.Note s -> "note:" ^ s

let entry_digest ~prev ~seq ~tick event =
  Sha256.digest_concat [ prev; Printf.sprintf "%d:%d:" seq tick; event_bytes event ]

(* The digests of a chain of [(tick, event)] appended from genesis, in
   order. *)
let digests events =
  let _, _, rev =
    List.fold_left
      (fun (prev, seq, acc) (tick, event) ->
        let d = entry_digest ~prev ~seq ~tick event in
        (d, seq + 1, d :: acc))
      (genesis, 0, []) events
  in
  List.rev rev
