//! Application workloads: the document-search program (Table VI and the
//! roaming experiment) and the photo-sharing server (§IV.D).

use sod_asm::builder::ClassBuilder;
use sod_vm::class::ClassDef;
use sod_vm::instr::Cmp;

/// Document search over `nfiles` files named `/srv/<i>/doc.txt`.
///
/// `roam` selects the migration policy: `0` — stay put (NFS pulls the
/// bytes); `> 0` — roam to node `first_server + i` before file `i` (the
/// §IV.C multi-server roaming experiment); `< 0` — migrate once to
/// `first_server` and search all files there (the Table VI single-NFS-
/// server setup). Returns the number of files containing the needle.
pub fn search_class() -> ClassDef {
    ClassBuilder::new("Search")
        .method("run", &["nfiles", "roam", "first_server"], |m| {
            m.line();
            m.pushi(0).store("found");
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("nfiles").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("roam").ifz(Cmp::Eq, "noroam");
            m.line();
            m.load("roam").pushi(0).if_cmp(Cmp::Lt, "fixed");
            m.line();
            m.load("first_server").load("i").add().store("tgt");
            m.goto("move");
            m.line();
            m.label("fixed");
            m.load("first_server").store("tgt");
            m.line();
            m.label("move");
            m.load("tgt").native("sod_move", 1).pop();
            m.line();
            m.label("noroam");
            // path = "/srv/" + i + "/doc.txt"
            m.pushstr("/srv/")
                .load("i")
                .native("int_to_str", 1)
                .native("str_concat", 2)
                .store("p1");
            m.line();
            m.load("p1")
                .pushstr("/doc.txt")
                .native("str_concat", 2)
                .store("path");
            m.line();
            m.load("path")
                .pushstr("beach")
                .native("fs_search", 2)
                .store("pos");
            m.line();
            m.load("pos").pushi(0).if_cmp(Cmp::Lt, "miss");
            m.line();
            m.load("found").pushi(1).add().store("found");
            m.line();
            m.label("miss");
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("found").retv();
        })
        .method("main", &["nfiles", "roam", "first_server"], |m| {
            m.line();
            m.load("nfiles")
                .load("roam")
                .load("first_server")
                .invoke("Search", "run", 3)
                .store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .expect("search verifies")
}

/// The photo-sharing web server (§IV.D): accepts `nreq` requests; for each,
/// pushes a search task to the phone (`sod_move(phone)`), lists the photo
/// directory there, returns home (`sod_move(home)`), and replies to the
/// client. Returns the total number of photos served.
pub fn photo_server_class() -> ClassDef {
    ClassBuilder::new("Photo")
        // serve one request: roam to the device, list photos, come back.
        .method("serve", &["phone", "home"], |m| {
            m.line();
            m.load("phone").native("sod_move", 1).pop();
            m.line();
            m.pushstr("/User/Media/DCIM/")
                .native("fs_list", 1)
                .store("photos");
            m.line();
            m.load("photos").arrlen().store("count");
            m.line();
            m.load("home").native("sod_move", 1).pop();
            m.line();
            m.load("count").retv();
        })
        .method("main", &["nreq", "phone"], |m| {
            m.line();
            m.pushi(0).store("served");
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("nreq").if_cmp(Cmp::Ge, "done");
            m.line();
            m.native("sock_accept", 0).store("req");
            m.line();
            m.load("phone").native("node_id", 0).pop().pop();
            m.line();
            m.load("phone")
                .pushi(0)
                .invoke("Photo", "serve", 2)
                .store("count");
            m.line();
            m.load("req").native("sock_send", 1).pop();
            m.line();
            m.load("served").load("count").add().store("served");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("served").retv();
        })
        .build()
        .expect("photo server verifies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod_preprocess::preprocess_sod;
    use sod_vm::wire::class_wire_bytes;

    #[test]
    fn apps_verify_and_preprocess() {
        for c in [search_class(), photo_server_class()] {
            let pre = preprocess_sod(&c).unwrap();
            assert!(class_wire_bytes(&pre) > class_wire_bytes(&c));
        }
    }
}
