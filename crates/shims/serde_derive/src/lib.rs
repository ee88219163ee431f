#![forbid(unsafe_code)]
//! Offline stand-in for `serde_derive`.
//!
//! Provides `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! shim `serde` crate's value-tree data model. Because the container
//! image carries no `syn`/`quote`, the struct definition is parsed
//! directly from the `proc_macro` token tree: attributes are skipped,
//! the struct name is captured, and field names are collected from the
//! brace-delimited body (a field name is an identifier followed by `:`
//! at angle-bracket depth zero).
//!
//! Supported shape: non-generic `struct`s with named fields — exactly
//! what the workspace derives on. Anything else is a compile error with
//! a pointed message rather than silent misbehavior.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A parsed `struct Name { field, ... }` skeleton.
struct StructDef {
    name: String,
    fields: Vec<String>,
}

/// Extracts the struct name and named-field list from a derive input.
fn parse_struct(input: TokenStream, derive: &str) -> StructDef {
    let mut iter = input.into_iter().peekable();
    // Skip outer attributes (`#[...]`, including doc comments) and
    // visibility, then expect `struct Name`.
    let name = loop {
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => match iter.next() {
                Some(TokenTree::Ident(name)) => break name.to_string(),
                _ => panic!("derive({derive}): expected struct name"),
            },
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => {
                panic!("derive({derive}) shim supports only structs with named fields")
            }
            Some(_) => {} // `pub`, `pub(crate)`, ...
            None => panic!("derive({derive}): no struct found"),
        }
    };
    let body = loop {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                panic!("derive({derive}) shim does not support generic structs")
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                panic!("derive({derive}) shim supports only structs with named fields")
            }
            Some(_) => {}
            None => panic!("derive({derive}): struct `{name}` has no body"),
        }
    };

    // Within the body: skip attributes and visibility, take the field
    // name before `:`, then skip the type up to a depth-0 comma.
    let mut fields = Vec::new();
    let mut toks = body.stream().into_iter().peekable();
    loop {
        match toks.next() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next(); // attribute group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                // optional `(crate)`/`(super)` restriction
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) => {
                match toks.next() {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                    _ => panic!("derive({derive}): expected `:` after field `{id}` in `{name}`"),
                }
                fields.push(id.to_string());
                // Skip the type: consume until a comma at angle depth 0.
                // The `>` of an `->` arrow (fn-pointer / Fn-trait types)
                // is not a generic closer: `-` arrives as a joint punct
                // immediately before it.
                let mut depth = 0i32;
                let mut prev_joint_minus = false;
                for t in toks.by_ref() {
                    let mut joint_minus = false;
                    match t {
                        TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                        TokenTree::Punct(p) if p.as_char() == '>' && !prev_joint_minus => {
                            depth -= 1;
                            assert!(
                                depth >= 0,
                                "derive({derive}): unbalanced `>` in type of field \
                                 `{id}` in `{name}`"
                            );
                        }
                        TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                        TokenTree::Punct(p) => {
                            joint_minus = p.as_char() == '-'
                                && matches!(p.spacing(), proc_macro::Spacing::Joint);
                        }
                        _ => {}
                    }
                    prev_joint_minus = joint_minus;
                }
            }
            Some(other) => {
                panic!("derive({derive}): unexpected token `{other}` in `{name}`")
            }
        }
    }
    StructDef { name, fields }
}

/// Derives `serde::Serialize` (value-tree rendering) for a named struct.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let def = parse_struct(input, "Serialize");
    let entries: String = def
        .fields
        .iter()
        .map(|f| {
            format!(
                "(::std::string::String::from(\"{f}\"), \
                 ::serde::Serialize::to_value(&self.{f})),"
            )
        })
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n\
                 ::serde::Value::Object(::std::vec::Vec::<(\
                     ::std::string::String, ::serde::Value\
                 )>::from([{entries}]))\n\
             }}\n\
         }}",
        name = def.name,
    )
    .parse()
    .expect("derive(Serialize): generated impl must parse")
}

/// Derives `serde::Deserialize` (value-tree rebuild) for a named struct.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let def = parse_struct(input, "Deserialize");
    let inits: String = def
        .fields
        .iter()
        .map(|f| format!("{f}: ::serde::Deserialize::from_value(v.field(\"{f}\")?)?,"))
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 ::std::result::Result::Ok({name} {{ {inits} }})\n\
             }}\n\
         }}",
        name = def.name,
    )
    .parse()
    .expect("derive(Deserialize): generated impl must parse")
}
