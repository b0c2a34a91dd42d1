module Crypto = Guillotine_crypto
module Prng = Guillotine_util.Prng

type admin = {
  key : (Crypto.Signature.signer * Crypto.Signature.public_key) Lazy.t;
      (* generated when the admin first approves or is verified *)
  mutable spent : int;
}

type t = {
  admins : admin array;
  relax_threshold : int;
  restrict_threshold : int;
  prng : Prng.t;
}

type proposal = { action : string; payload : string; nonce : string }

type approval = { admin_id : int; signature : string }

let create ?(admins = 7) ?(relax_threshold = 5) ?(restrict_threshold = 3)
    ?(key_height = 5) prng =
  if admins <= 0 then invalid_arg "Hsm.create: need at least one admin";
  if relax_threshold > admins || restrict_threshold > admins then
    invalid_arg "Hsm.create: threshold exceeds admin count";
  let make_admin () =
    { key = Crypto.Signature.defer ~height:key_height prng; spent = 0 }
  in
  {
    admins = Array.init admins (fun _ -> make_admin ());
    relax_threshold;
    restrict_threshold;
    prng;
  }

let admin_count t = Array.length t.admins
let relax_threshold t = t.relax_threshold
let restrict_threshold t = t.restrict_threshold

let proposal_bytes p =
  Printf.sprintf "%d:%s%d:%s%d:%s" (String.length p.action) p.action
    (String.length p.payload) p.payload (String.length p.nonce) p.nonce

let new_proposal t ~action ~payload =
  let nonce = String.init 16 (fun _ -> Char.chr (Prng.int t.prng 256)) in
  { action; payload; nonce }

let approve t ~admin p =
  if admin < 0 || admin >= Array.length t.admins then
    invalid_arg "Hsm.approve: unknown admin";
  let a = t.admins.(admin) in
  let sg = Crypto.Signature.sign (fst (Lazy.force a.key)) (proposal_bytes p) in
  a.spent <- a.spent + 1;
  { admin_id = admin; signature = Crypto.Signature.encode sg }

let forge_approval _t ~claimed_admin _p =
  { admin_id = claimed_admin; signature = "forged" }

type verdict = {
  granted : bool;
  valid_approvals : int;
  needed : int;
  rejected : (int * string) list;
}

let authorize t ~kind p approvals =
  let needed =
    match kind with `Relax -> t.relax_threshold | `Restrict -> t.restrict_threshold
  in
  let seen = Hashtbl.create 8 in
  let rejected = ref [] in
  let valid = ref 0 in
  List.iter
    (fun ap ->
      if ap.admin_id < 0 || ap.admin_id >= Array.length t.admins then
        rejected := (ap.admin_id, "unknown admin") :: !rejected
      else if Hashtbl.mem seen ap.admin_id then
        rejected := (ap.admin_id, "duplicate approval") :: !rejected
      else begin
        match Crypto.Signature.decode ap.signature with
        | None -> rejected := (ap.admin_id, "malformed signature") :: !rejected
        | Some sg ->
          if
            Crypto.Signature.verify
              (snd (Lazy.force t.admins.(ap.admin_id).key))
              ~msg:(proposal_bytes p) sg
          then begin
            Hashtbl.replace seen ap.admin_id ();
            incr valid
          end
          else rejected := (ap.admin_id, "signature does not verify") :: !rejected
      end)
    approvals;
  {
    granted = !valid >= needed;
    valid_approvals = !valid;
    needed;
    rejected = List.rev !rejected;
  }

let approvals_spent t ~admin =
  if admin < 0 || admin >= Array.length t.admins then
    invalid_arg "Hsm.approvals_spent: unknown admin";
  t.admins.(admin).spent
